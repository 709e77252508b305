package repro.graph

/** A scored search result: object id + squared distance to the query. */
final case class Candidate(id: Int, dist: Float)

/** Mutable per-query counters — the paper's auxiliary metric "number of
  * distance computations" plus edge-selection work, used by tests and benches.
  */
final class SearchStats {
  var distComputations: Long = 0L
  var nodesExpanded: Long = 0L
  var edgesScanned: Long = 0L
  def reset(): Unit = { distComputations = 0; nodesExpanded = 0; edgesScanned = 0 }
}

/** Greedy beam search (Section 2.1) over an arbitrary adjacency function.
  *
  * This single kernel powers every graph method in the repo; methods differ
  * only in `neighbors` (which graph / which on-the-fly edge selection),
  * `visit` (may this node be *traversed*, i.e., entered into the beam —
  * In-filtering restricts this) and `admit` (may this node appear in the
  * *result* — Post-filtering restricts this).
  *
  * The `neighbors` function returns the adjacency of the expanded node; a
  * negative id terminates the list early, which lets callers reuse a padded
  * scratch buffer across expansions (the on-the-fly edge selection does).
  * The kernel reads that array before it calls `neighbors` again.
  *
  * Termination follows the standard filtered-search convention: the beam is
  * the set of best *visited* nodes; the search stops when the nearest
  * unexpanded candidate is farther than the beam's worst member and the beam
  * is full. Results are the admitted nodes seen, best-first, top-k. Ties
  * break by id: candidates are ordered by `java.lang.Float.compare` on the
  * distance, then by id.
  *
  * The search state lives in primitive arrays that each thread reuses from
  * call to call (the `Kernel` below), so the kernel allocates little beyond
  * the result array. Each ranked node is one [[RankKey]] `Long`.
  */
object BeamSearch {

  /** The default `admit`: every visited node may be a result. The kernel
    * recognizes it by reference: with k <= beam the best k visited nodes
    * are the beam's first k, so it keeps no separate admitted list.
    */
  val AdmitAll: Int => Boolean = _ => true

  def search(
      q: Array[Float],
      dist: Int => Float,
      entries: Seq[Int],
      beam: Int,
      k: Int,
      neighbors: Int => Array[Int],
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = AdmitAll,
      stats: SearchStats = null,
  ): Array[Candidate] = {
    require(beam >= 1 && k >= 0, s"need beam >= 1 and k >= 0, got beam = $beam, k = $k")
    val pooled = pool.get
    // A `neighbors` or `visit` callback may itself search on this thread.
    val kernel = if (pooled.inUse) new Kernel else pooled
    kernel.inUse = true
    try kernel.run(dist, entries, beam, k, neighbors, visit, admit, stats)
    finally kernel.inUse = false
  }

  private val pool = ThreadLocal.withInitial[Kernel](() => new Kernel)

  /** Inserts `key` (a [[RankKey]], bit 0 clear) into `keys`[0, size),
    * sorted ascending and holding at most `cap` entries, dropping the last
    * entry when full. Entries may carry bit 0; ids are distinct, so
    * comparing with `key | 1` orders `key` against them by (dist, id)
    * alone. Returns the slot taken, or -1 if a full list's last entry ranks
    * first.
    */
  private def insert(keys: Array[Long], size: Int, cap: Int, key: Long): Int = {
    val probe = key | 1L
    if (size == cap && keys(size - 1) < probe) return -1
    var lo = 0
    var hi = size
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (keys(mid) < probe) lo = mid + 1 else hi = mid
    }
    System.arraycopy(keys, lo, keys, lo + 1, math.min(size, cap - 1) - lo)
    keys(lo) = key
    lo
  }

  /** One search's state, confined to one thread and reused across calls.
    *
    *  - **Visited set:** `mark(id) == epoch`. A new search bumps the epoch;
    *    the array is zero-filled only when the epoch wraps, and grows on
    *    demand to the largest id seen.
    *  - **Beam:** the best `beam` visited nodes as [[RankKey]]s, sorted
    *    ascending, with bit 0 set once a node is expanded; `cursor` is the
    *    first unexpanded slot. It replaces both a frontier heap and a beam
    *    heap: a frontier entry outside the beam ranks after the beam's
    *    worst member, so it could only ever end the search.
    *  - **Admitted list:** the best `max(k, beam)` admitted nodes' keys,
    *    sorted; kept only when `admit` is not [[AdmitAll]] or k > beam.
    */
  private final class Kernel {
    var inUse = false

    private var mark = new Array[Int](1024)
    private var epoch = 0

    private var beamKeys = new Array[Long](64)
    private var beamSize = 0
    private var cursor = 0

    private var admKeys = new Array[Long](64)
    private var admSize = 0
    private var admCap = 0 // 0: no admitted list

    def run(dist: Int => Float, entries: Seq[Int], beam: Int, k: Int,
            neighbors: Int => Array[Int], visit: Int => Boolean, admit: Int => Boolean,
            stats: SearchStats): Array[Candidate] = {
      start(beam, if ((admit eq AdmitAll) && k <= beam) 0 else math.max(k, beam))
      val it = entries.iterator
      while (it.hasNext) {
        val e = it.next()
        if (visit(e)) offer(e, dist, admit, stats, beam)
      }
      while (cursor < beamSize) {
        val key = beamKeys(cursor)
        beamKeys(cursor) = key | 1L
        val u = RankKey.id(key)
        if (stats != null) stats.nodesExpanded += 1
        val nbrs = neighbors(u)
        var j = 0
        while (j < nbrs.length && nbrs(j) >= 0) {
          val v = nbrs(j)
          if (stats != null) stats.edgesScanned += 1
          if (!(v < mark.length && mark(v) == epoch) && visit(v)) offer(v, dist, admit, stats, beam)
          j += 1
        }
        while (cursor < beamSize && (beamKeys(cursor) & 1L) != 0) cursor += 1
      }
      val keys = if (admCap > 0) admKeys else beamKeys
      val out = new Array[Candidate](math.min(k, if (admCap > 0) admSize else beamSize))
      var i = 0
      while (i < out.length) { out(i) = Candidate(RankKey.id(keys(i)), RankKey.dist(keys(i))); i += 1 }
      out
    }

    private def start(beam: Int, cap: Int): Unit = {
      if (epoch == Int.MaxValue) { java.util.Arrays.fill(mark, 0); epoch = 0 }
      epoch += 1
      if (beamKeys.length < beam) beamKeys = new Array[Long](beam)
      if (admKeys.length < cap) admKeys = new Array[Long](cap)
      beamSize = 0; cursor = 0; admSize = 0; admCap = cap
    }

    /** Visits `id` if new: computes its distance once, then inserts its key
      * into the beam and, if admitted, into the admitted list.
      */
    private def offer(id: Int, dist: Int => Float, admit: Int => Boolean, stats: SearchStats,
                      beam: Int): Unit = {
      if (id >= mark.length) mark = java.util.Arrays.copyOf(mark, math.max(id + 1, 2 * mark.length))
      if (mark(id) != epoch) {
        mark(id) = epoch
        val key = RankKey(dist(id), id)
        if (stats != null) stats.distComputations += 1
        val pos = insert(beamKeys, beamSize, beam, key)
        if (pos >= 0) {
          beamSize = math.min(beamSize + 1, beam)
          if (pos < cursor) cursor = pos
        }
        if (admCap > 0 && admit(id) && insert(admKeys, admSize, admCap, key) >= 0)
          admSize = math.min(admSize + 1, admCap)
      }
    }
  }
}
