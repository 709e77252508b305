package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.graph.VecStore

/** Differential test of [[EdgeSelection.select]] against
  * [[PaddedEdgeSelection]], the padded-layout selection it replaced, plus a
  * round trip of the [[ElementalGraphs]] packing against the padded
  * definitions of its accessors.
  */
class EdgeSelectionDifferentialSpec extends AnyFunSuite {

  private val stores: Seq[(String, () => VecStore)] = Seq(
    ("n = 1", () => TestData.clusteredVs(1, 6, clusters = 3, seed = 501)),
    ("n = 2", () => TestData.clusteredVs(2, 6, clusters = 3, seed = 502)),
    ("n = 3", () => TestData.clusteredVs(3, 6, clusters = 3, seed = 503)),
    ("n = 40", () => TestData.clusteredVs(40, 6, clusters = 3, seed = 504)),
    ("n = 600", () => TestData.clusteredVs(600, 6, clusters = 5, seed = 505)),
    ("identical vectors", () => new VecStore(4, 300, Array.tabulate(300 * 4)(i => (i % 4).toFloat))))

  private val ms = Seq(1, 6, 16)

  /** Checks one (u, L, R) with skip on and off; returns the edges selected. */
  private def same(g: ElementalGraphs, ref: PaddedEdgeSelection.Padded,
                   u: Int, L: Int, R: Int): Int = {
    var edges = 0
    for (skip <- Seq(true, false)) {
      val got = Array.fill(g.m + 1)(Int.MinValue)
      val want = Array.fill(g.m + 1)(Int.MinValue)
      val c = EdgeSelection.select(g, u, L, R, got, skip)
      val cRef = PaddedEdgeSelection.select(ref, u, L, R, want, skip)
      assert(c == cRef, s"count: u=$u [$L,$R] skip=$skip")
      assert(got.take(c + 1).toSeq == want.take(cRef + 1).toSeq, s"edges: u=$u [$L,$R] skip=$skip")
      edges += c
    }
    edges
  }

  for ((label, data) <- stores; m <- ms)
    test(s"select equals the padded reference ($label, m = $m)") {
      val vs = data()
      val n = vs.n
      val g = ElementalGraphBuilder.build(vs, m, ef = 40)
      val ref = PaddedEdgeSelection.padded(g)
      var edges = 0L
      if (n <= 40) {
        // Every u against every range, u outside [L, R] and L = R included.
        for (u <- 0 until n; l <- 0 until n; r <- l until n) edges += same(g, ref, u, l, r)
      } else {
        val rnd = new SplittableRandom(506L + m)
        for (t <- 0 until 6000) {
          val a = rnd.nextInt(n)
          val b = if (t % 10 == 0) a else rnd.nextInt(n)
          val (l, r) = (math.min(a, b), math.max(a, b))
          // Two in three queries expand an in-range node, as a search does.
          val u = if (t % 3 == 0) rnd.nextInt(n) else l + rnd.nextInt(r - l + 1)
          edges += same(g, ref, u, l, r)
        }
      }
      assert(n < 3 || edges > 0, "no edge was ever selected")
    }

  /** Padded layers holding random lists: distinct ids, any degree 0..m. */
  private def randomPadded(n: Int, m: Int, depth: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new SplittableRandom(seed)
    Array.fill(depth) {
      val a = Array.fill(n * m)(-1)
      for (u <- 0 until n) {
        val ids = rnd.ints(0, n).distinct().limit(math.min(n, rnd.nextInt(m + 1)).toLong).toArray
        System.arraycopy(ids, 0, a, u * m, ids.length)
      }
      a
    }
  }

  private def assertRoundTrip(n: Int, m: Int, layers: Array[Array[Int]]): Unit = {
    val input = layers.map(_.clone)
    val g = new ElementalGraphs(n, m, layers)
    assert(g.numLayers == input.length)
    assert(g.layers.length == input.length)
    var edges = 0L
    for (lay <- input.indices) {
      assert(java.util.Arrays.equals(g.layers(lay), input(lay)), s"layer $lay")
      for (u <- 0 until n) {
        val list = input(lay).slice(u * m, (u + 1) * m).takeWhile(_ >= 0)
        assert(g.degree(lay, u) == list.length, s"degree($lay, $u)")
        assert(g.neighbors(lay, u).toSeq == list.toSeq, s"neighbors($lay, $u)")
      }
      edges += input(lay).count(_ >= 0)
    }
    assert(g.edgeCount == edges)
    assert(g.sizeBytes == 4 * edges)
  }

  /** The builder's padded working layers, filled bottom-up as `build` does. */
  private def builtPadded(vs: VecStore, m: Int, ef: Int): Array[Array[Int]] = {
    val n = vs.n
    val depth = SegmentTree.depth(n)
    val layers = Array.fill(depth)(Array.fill(n * m)(-1))
    for (lay <- depth - 2 to 0 by -1; u <- 0 until n) {
      val (l, r) = SegmentTree.segmentAt(n, lay, u)
      ElementalGraphBuilder.buildNode(vs, layers, m, ef, l, r, lay, u)
    }
    layers
  }

  for ((label, data) <- stores)
    test(s"packing round-trips the built padded layers ($label)") {
      val vs = data()
      for (m <- ms) assertRoundTrip(vs.n, m, builtPadded(vs, m, ef = 40))
    }

  test("packing round-trips random padded lists of every degree") {
    for ((n, m, depth) <- Seq((1, 1, 1), (5, 1, 3), (37, 6, 7), (200, 16, 9)))
      assertRoundTrip(n, m, randomPadded(n, m, depth, seed = 507L + n))
  }
}
