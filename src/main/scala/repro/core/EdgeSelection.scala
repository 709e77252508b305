package repro.core

/** Algorithm 1 — on-the-fly edge selection for the dedicated graph.
  *
  * For a node u and query range [L, R] (ranks, inclusive), walk u's branch
  * of the segment tree top-down, appending u's *in-range* neighbors from
  * each visited layer's elemental graph until m edges are collected, a
  * segment fully covered by the query range is consumed (any edge pruned
  * there is pruned by an in-range object, so deeper layers add nothing
  * RNG-valid), or the branch bottoms out.
  *
  * The skipping rule: when the child containing u has the same intersection
  * with [L, R] as the current segment, the current layer's edges have the
  * same robustness against in-range pruning as the child's, so the layer is
  * skipped without selecting — this is what turns O(m log n) into amortized
  * O(m + log n): at most two boundary-crossing segments per layer actually
  * contribute scans. The two children partition the segment, so the
  * intersections are equal exactly when the sibling misses [L, R].
  *
  * Within a layer, neighbor lists are stored sorted by distance, so
  * insertion order implements the paper's priority (upper layers first,
  * closer neighbors first) without extra distance computations. u's lists
  * of all layers sit next to each other in [[ElementalGraphs]]' packed
  * layout. Output is written into `out` (length ≥ m + 1) and
  * -1-terminated so the search's scratch buffer can be reused across
  * expansions.
  */
object EdgeSelection {

  /** Returns the edge count. `skip` = true is the real Algorithm 1;
    * `skip` = false is the ablation that scans every layer — O(m log n) —
    * and selects the same way (iRangeGraph⁻).
    *
    * Each scanned entry costs the same whatever it holds: it is written to
    * `out(count)` and marked as seen, and `count` advances only if it is in
    * range and was not seen before in this call. Ids out of range are
    * marked too, which is harmless: they are never in range.
    */
  def select(g: ElementalGraphs, u: Int, L: Int, R: Int, out: Array[Int],
             skip: Boolean = true): Int = {
    val m = g.m
    val adj = g.adj
    val start = g.start
    val base = u * g.stride
    val marks = pool.get
    marks.next(g.n)
    val mark = marks.mark
    val epoch = marks.epoch
    // L <= v <= R is one unsigned compare, v - L <= R - L, made in 64 bits
    // so that its outcome is the sign bit of (R - L) - (v - L).
    val span = (R - L).toLong
    var l = 0
    var r = g.n - 1
    var lay = 0
    var count = 0
    var done = false
    while (!done && count < m && l < r) {
      val cm = SegmentTree.mid(l, r)
      val left = u <= cm
      val lc = if (left) l else cm + 1
      val rc = if (left) cm else r
      val sl = if (left) cm + 1 else l
      val sr = if (left) r else cm
      if (skip && (sr < L || R < sl)) {
        // The sibling misses [L, R]: child's edges are equally robust — skip layer.
        l = lc; r = rc; lay += 1
      } else {
        var j = start(base + lay)
        val end = start(base + lay + 1)
        while (j < end && count < m) {
          val v = adj(j)
          out(count) = v
          val stale = mark(v) ^ epoch // 0 iff v was seen in this call
          mark(v) = epoch
          val inRange = ((span - ((v - L) & 0xFFFFFFFFL)) >>> 63).toInt ^ 1
          count += inRange & ((stale | -stale) >>> 31)
          j += 1
        }
        if (L <= l && r <= R) done = true
        else { l = lc; r = rc; lay += 1 }
      }
    }
    if (count < out.length) out(count) = -1
    count
  }

  /** The ids one `select` call has seen. Confined to one thread, and
    * `select` makes no callback that could re-enter it.
    */
  private val pool = ThreadLocal.withInitial[Marks](() => new Marks)
}
