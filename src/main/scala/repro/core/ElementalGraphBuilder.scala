package repro.core

import java.util.stream.IntStream
import repro.graph.{BeamSearch, BruteForce, Candidate, RngPrune, VecStore}

/** Bottom-up materialization of all elemental graphs (Section 3.2.2).
  *
  * For a segment [l, r] whose children graphs are already built, the
  * candidates for a node u in child [l, mid] are
  *
  *  1. u's neighbors in the child's elemental graph — any candidate from the
  *     containing child that those neighbors pruned would also be pruned in
  *     [l, r] (superset pruning argument), so copying them is sufficient; and
  *  2. approximate nearest neighbors of u searched in the *sibling* child's
  *     elemental graph (beam search with beam = EF), since nothing is known
  *     about pruning there.
  *
  * The union is then RNG-pruned (α = 1, the paper's rule) and capped at m.
  * Segments of size ≤ `bruteThreshold` take all members as candidates, which
  * is both cheaper and exact at that scale. Everything is deterministic:
  * ties break by (distance, id).
  */
object ElementalGraphBuilder {

  /** Below this size a segment's candidates are simply all its members. */
  def bruteThreshold(m: Int): Int = math.max(2 * m, 32)

  /** Build segment [l, r]'s graph at layer `lay`, one node at a time,
    * assuming its children's graphs at layer `lay + 1` are present in
    * `layers`. The sequential reference for [[build]].
    */
  def buildSegmentLayer(vs: VecStore, layers: Array[Array[Int]], m: Int, ef: Int,
                        l: Int, r: Int, lay: Int): Unit = {
    var u = l
    while (u <= r) {
      buildNode(vs, layers, m, ef, l, r, lay, u)
      u += 1
    }
  }

  /** Build node u's neighbor list in segment [l, r] at layer `lay`. Reads
    * only layer `lay + 1` and writes only u's slice `[u*m, (u+1)*m)` of
    * layer `lay`.
    */
  def buildNode(vs: VecStore, layers: Array[Array[Int]], m: Int, ef: Int,
                l: Int, r: Int, lay: Int, u: Int): Unit = {
    val size = r - l + 1
    if (size <= 1) return
    val target = layers(lay)
    if (size <= bruteThreshold(m)) {
      val cands = new Array[Candidate](size - 1)
      var i = 0
      var v = l
      while (v <= r) {
        if (v != u) { cands(i) = Candidate(v, vs.dist2(u, v)); i += 1 }
        v += 1
      }
      writeNeighbors(target, m, u, RngPrune.prune(cands, (a, b) => vs.dist2(a, b), m))
    } else {
      val mid = SegmentTree.mid(l, r)
      val childAdj = layers(lay + 1)
      val (siblingLo, siblingHi) =
        if (u <= mid) (mid + 1, r) else (l, mid)
      // Candidates from both sources, deduplicated through this thread's marks.
      val cands = new Array[Candidate](m + ef)
      var size = 0
      val marks = seen.get
      marks.next(vs.n)
      val mark = marks.mark
      val epoch = marks.epoch
      // 1. Copy u's neighbors from its containing child's graph.
      val base = u * m
      var j = 0
      while (j < m && childAdj(base + j) >= 0) {
        val v = childAdj(base + j)
        if (mark(v) != epoch) { mark(v) = epoch; cands(size) = Candidate(v, vs.dist2(u, v)); size += 1 }
        j += 1
      }
      // 2. Search the sibling child's graph for approximate NNs of u.
      val q = vs.vector(u)
      val found =
        if (siblingHi - siblingLo + 1 <= ef)
          BruteForce.topK(vs, q, siblingLo, siblingHi, ef)
        else {
          // One adjacency buffer for the whole search: the kernel is done
          // with a neighbor list before it asks for the next.
          val adj = new Array[Int](m)
          BeamSearch.search(
            q, (i: Int) => vs.dist2(i, q),
            entries = Seq(SegmentTree.mid(siblingLo, siblingHi)),
            beam = ef, k = ef,
            neighbors = (x: Int) => { System.arraycopy(childAdj, x * m, adj, 0, m); adj },
          )
        }
      j = 0
      while (j < found.length) {
        val c = found(j)
        if (mark(c.id) != epoch) { mark(c.id) = epoch; cands(size) = c; size += 1 }
        j += 1
      }
      writeNeighbors(target, m, u, RngPrune.prune(cands.take(size), (a, b) => vs.dist2(a, b), m))
    }
  }

  private val seen = ThreadLocal.withInitial[Marks](() => new Marks)

  private def writeNeighbors(flat: Array[Int], m: Int, u: Int, kept: Array[Candidate]): Unit = {
    val base = u * m
    var i = 0
    while (i < m) {
      flat(base + i) = if (i < kept.length) kept(i).id else -1
      i += 1
    }
  }

  /** Build the full index over `vs` (ranks = ids), one layer at a time
    * from the deepest non-leaf layer up to the root. Within a layer every
    * rank runs [[buildNode]] on the common fork-join pool; since each reads
    * only the finished layer below and writes only its own slice, the
    * result is identical to the sequential [[buildSegmentLayer]] order.
    */
  def build(vs: VecStore, m: Int, ef: Int): ElementalGraphs = {
    val n = vs.n
    val depth = SegmentTree.depth(n)
    val layers = Array.fill(depth)(Array.fill(n * m)(-1))
    for (lay <- depth - 2 to 0 by -1)
      IntStream.range(0, n).parallel().forEach { u =>
        val (l, r) = SegmentTree.segmentAt(n, lay, u)
        buildNode(vs, layers, m, ef, l, r, lay, u)
      }
    new ElementalGraphs(n, m, layers)
  }
}
