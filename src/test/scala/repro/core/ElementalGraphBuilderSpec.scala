package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.graph.{BruteForce, RngPrune, VecStore}
import repro.data.GroundTruth
import scala.collection.mutable

class ElementalGraphBuilderSpec extends AnyFunSuite {

  private val vs = TestData.clusteredVs(512, 8, clusters = 6, seed = 71)
  private lazy val g = ElementalGraphBuilder.build(vs, m = 8, ef = 60)

  test("layer count equals the segment tree depth") {
    assert(g.numLayers == SegmentTree.depth(512))
  }

  test("degrees never exceed m on any layer") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512)
      assert(g.degree(lay, u) <= 8)
  }

  test("neighbors stay within the node's segment at every layer") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512) {
      val (l, r) = SegmentTree.segmentAt(512, lay, u)
      assert(g.neighbors(lay, u).forall(v => v >= l && v <= r),
        s"layer $lay node $u leaks outside [$l,$r]")
    }
  }

  test("leaf layers have no edges") {
    val last = g.numLayers - 1
    for (u <- 0 until 512) assert(g.degree(last, u) == 0)
  }

  test("neighbor lists are sorted ascending by distance") {
    for (lay <- 0 until g.numLayers - 1; u <- 0 until 512 by 13) {
      val ds = g.neighbors(lay, u).map(vs.dist2(u, _))
      assert(ds.sliding(2).forall { case Array(a, b) => a <= b; case _ => true })
    }
  }

  test("no self-loops or duplicate neighbors") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512) {
      val nb = g.neighbors(lay, u)
      assert(!nb.contains(u))
      assert(nb.distinct.length == nb.length)
    }
  }

  test("small segments keep every exact-RNG edge (brute-force path, full candidates)") {
    // Segments <= bruteThreshold use all members as candidates; the greedy
    // kept-set prune then retains a superset of the exact RNG edges.
    val small = TestData.randomVs(16, 4, seed = 72)
    val sg = ElementalGraphBuilder.build(small, m = 16, ef = 32)
    val exact = RngPrune.exactRng(small, 0, 15)
    for (u <- 0 until 16)
      assert(exact(u).toSet.subsetOf(sg.neighbors(0, u).toSet), s"node $u")
  }

  test("above the brute-force threshold, same-child parent edges come from the child graph") {
    // Invariant from Section 3.2.2: for segments built via the bottom-up
    // path, candidates from the containing child are copied from the child's
    // adjacency — so a parent edge (u,v) with v in u's child segment must be
    // a child-graph edge. (Brute-forced small segments use all members as
    // candidates instead, so the invariant applies above the threshold.)
    val thresh = ElementalGraphBuilder.bruteThreshold(8)
    for (lay <- 0 until g.numLayers - 1; u <- 0 until 512 by 7) {
      val (l, r) = SegmentTree.segmentAt(512, lay, u)
      if (r - l + 1 > thresh) {
        val (cl, cr) = SegmentTree.childContaining(l, r, u)
        val childNbrs = g.neighbors(lay + 1, u).toSet
        for (v <- g.neighbors(lay, u) if v >= cl && v <= cr)
          assert(childNbrs.contains(v),
            s"parent edge ($u,$v) at layer $lay not in child graph")
      }
    }
  }

  test("root graph supports accurate ANN search over the whole set") {
    val queries = TestData.nearQueries(vs, 20, seed = 73)
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, 511, 10))
    val got = queries.map { q =>
      // search layer 0 directly via a full-range query on iRangeGraph
      new IRangeGraph(vs, g).search(q, 0, 511, 10, beam = 120).map(_.id)
    }
    assert(GroundTruth.meanRecall(gt, got) >= 0.9)
  }

  test("arbitrary (non power of two) n builds and stays consistent") {
    val odd = TestData.clusteredVs(333, 6, clusters = 4, seed = 74)
    val og = ElementalGraphBuilder.build(odd, m = 6, ef = 40)
    assert(og.numLayers == SegmentTree.depth(333))
    for (lay <- 0 until og.numLayers; u <- 0 until 333) {
      val (l, r) = SegmentTree.segmentAt(333, lay, u)
      assert(og.neighbors(lay, u).forall(v => v >= l && v <= r && v != u))
    }
  }

  test("build is deterministic") {
    val a = ElementalGraphBuilder.build(vs.slice(0, 128), m = 6, ef = 30)
    val b = ElementalGraphBuilder.build(vs.slice(0, 128), m = 6, ef = 30)
    for (lay <- 0 until a.numLayers)
      assert(a.layers(lay).toSeq == b.layers(lay).toSeq)
  }

  test("edgeCount and sizeBytes agree") {
    assert(g.sizeBytes == g.edgeCount * 4)
    assert(g.edgeCount > 0)
  }

  test("space is O(n m log n): bounded by n*m per layer") {
    assert(g.edgeCount <= 512L * 8 * g.numLayers)
  }

  /** Sequential reference: every segment of each layer through
    * `buildSegmentLayer`, bottom-up, with the segments found by recursion
    * from the root (independently of `SegmentTree.segmentAt`).
    */
  private def sequentialReference(vs: VecStore, m: Int, ef: Int): Array[Array[Int]] = {
    val n = vs.n
    val depth = SegmentTree.depth(n)
    val segments = Array.fill(depth)(mutable.ArrayBuffer.empty[(Int, Int)])
    def collect(l: Int, r: Int, lay: Int): Unit = {
      segments(lay) += ((l, r))
      if (l < r) {
        val mid = SegmentTree.mid(l, r)
        collect(l, mid, lay + 1)
        collect(mid + 1, r, lay + 1)
      }
    }
    collect(0, n - 1, 0)
    val layers = Array.fill(depth)(Array.fill(n * m)(-1))
    for (lay <- depth - 1 to 0 by -1; (l, r) <- segments(lay))
      ElementalGraphBuilder.buildSegmentLayer(vs, layers, m, ef, l, r, lay)
    layers
  }

  private def assertEqualsReference(vs: VecStore, m: Int, ef: Int): Unit = {
    val ref = sequentialReference(vs, m, ef)
    for (rep <- 1 to 3) {
      val g = ElementalGraphBuilder.build(vs, m, ef)
      assert(g.numLayers == ref.length, s"build $rep")
      for (lay <- ref.indices)
        assert(java.util.Arrays.equals(g.layers(lay), ref(lay)), s"build $rep: layer $lay differs")
    }
  }

  // The sizes and m/ef of the former distributed-build checks, then tiny n.
  for ((label, data, m, ef) <- Seq(
         ("n = 600", () => TestData.clusteredVs(600, 8, clusters = 6, seed = 131), 8, 40),
         ("n = 200", () => TestData.clusteredVs(200, 6, clusters = 4, seed = 132), 6, 30),
         ("n = 10", () => TestData.randomVs(10, 4, seed = 133), 4, 10),
         ("n = 50", () => TestData.randomVs(50, 4, seed = 134), 4, 20),
         ("n = 1", () => TestData.randomVs(1, 4, seed = 136), 4, 10),
         ("n = 2", () => TestData.randomVs(2, 4, seed = 137), 4, 10),
         ("n = 3", () => TestData.randomVs(3, 4, seed = 138), 4, 10))) {
    test(s"build equals the sequential reference ($label)") {
      assertEqualsReference(data(), m, ef)
    }
  }

  test("build equals the sequential reference (identical vectors)") {
    // Every distance is 0, so only the (dist, id) tie-break orders neighbors;
    // n = 300 takes the sibling beam-search path on the upper layers.
    val same = new VecStore(4, 300, Array.tabulate(300 * 4)(i => (i % 4).toFloat))
    assertEqualsReference(same, 8, 20)
  }

  test("search quality on the built index matches brute force") {
    val vs600 = TestData.clusteredVs(600, 8, clusters = 6, seed = 131)
    val ir = IRangeGraph.build(vs600, m = 8, ef = 40)
    val q = TestData.nearQueries(vs600, 1, seed = 135)(0)
    val got = ir.search(q, 50, 550, 10, 100).map(_.id)
    val exact = BruteForce.topKIds(vs600, q, 50, 550, 10)
    assert(got.intersect(exact).length >= 8)
  }
}
