package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class BeamSearchSpec extends AnyFunSuite {

  /** Fully connected adjacency — beam search must then equal brute force. */
  private def completeNeighbors(n: Int): Int => Array[Int] =
    (u: Int) => (0 until n).filter(_ != u).toArray

  private val vs = TestData.randomVs(60, 6, seed = 41)
  private val queries = TestData.randomQueries(4, 6, seed = 42)

  for ((q, qi) <- queries.zipWithIndex) {
    test(s"on a complete graph, search equals exact top-k (query $qi)") {
      val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
        neighbors = completeNeighbors(60))
      assert(got.map(_.id).toSeq == BruteForce.topKIds(vs, q, 0, 59, 10).toSeq)
    }
  }

  test("results are sorted ascending by (dist, id)") {
    val q = queries(0)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 20, k = 20,
      neighbors = completeNeighbors(60))
    assert(got.sliding(2).forall {
      case Array(a, b) => a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
      case _ => true
    })
  }

  test("admit filter excludes nodes from results but not traversal") {
    val q = queries(1)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
      neighbors = completeNeighbors(60), admit = _ % 3 == 0)
    assert(got.nonEmpty)
    assert(got.forall(_.id % 3 == 0))
    assert(got.map(_.id).toSeq == BruteForce.topKIds(vs, q, 0, 59, 10, _ % 3 == 0).toSeq)
  }

  test("visit filter restricts traversal entirely") {
    // Path graph 0-1-2-...-n; forbidding node 5 makes everything beyond unreachable.
    val n = 20
    val path: Int => Array[Int] = u => Array(u - 1, u + 1).filter(v => v >= 0 && v < n)
    val q = queries(2)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = n, k = n,
      neighbors = path, visit = _ != 5)
    assert(got.map(_.id).forall(_ < 5))
  }

  test("negative id terminates a neighbor list early") {
    val adj: Int => Array[Int] = u => Array(1, -1, 2, 3) // 2, 3 must be ignored
    val q = queries(3)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = adj)
    assert(got.map(_.id).toSet == Set(0, 1))
  }

  test("stats count distance computations and expansions") {
    val stats = new SearchStats
    val q = queries(0)
    BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = completeNeighbors(60), stats = stats)
    assert(stats.distComputations > 0)
    assert(stats.nodesExpanded > 0)
    assert(stats.edgesScanned >= stats.distComputations - 1)
  }

  test("beam = 1 is plain greedy search: still finds a local result") {
    val q = queries(1)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 1, k = 1,
      neighbors = completeNeighbors(60))
    // Complete graph: greedy from anywhere reaches the global NN.
    assert(got.head.id == BruteForce.topKIds(vs, q, 0, 59, 1).head)
  }

  test("larger beams never reduce recall on a fixed sparse graph") {
    val h = Hnsw.buildAll(vs, m = 6, efConstruction = 30)
    val q = queries(2)
    val exact = BruteForce.topKIds(vs, q, 0, 59, 10).toSet
    val recalls = Seq(2, 8, 32, 60).map { b =>
      h.search(q, 10, b).map(_.id).count(exact).toDouble / 10
    }
    assert(recalls.sliding(2).forall { case Seq(a, b) => b >= a - 1e-9; case _ => true })
  }

  test("empty entries yield empty results") {
    val got = BeamSearch.search(queries(0), i => vs.dist2(i, queries(0)), Seq.empty,
      beam = 10, k = 10, neighbors = completeNeighbors(60))
    assert(got.isEmpty)
  }

  /** A sparse ring-like graph, so a search expands many nodes. */
  private val ring: Int => Array[Int] = u => Array((u + 1) % 60, (u + 7) % 60, (u + 59) % 60)

  private def counters(s: SearchStats) = (s.distComputations, s.nodesExpanded, s.edgesScanned)

  test("a neighbors callback that itself searches still gets the reference answer") {
    val q = queries(0)
    def innerSearch(u: Int) = BeamSearch.search(q, i => vs.dist2(i, q), Seq(u), beam = 5, k = 5,
      neighbors = ring).toSeq
    var innerCalls = 0
    val (s, sRef) = (new SearchStats, new SearchStats)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = u => {
        innerCalls += 1
        assert(innerSearch(u) == HeapBeamSearch.search(q, i => vs.dist2(i, q), Seq(u), beam = 5,
          k = 5, neighbors = ring).toSeq, s"inner search from $u")
        ring(u)
      }, stats = s)
    val expected = HeapBeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = ring, stats = sRef)
    assert(innerCalls > 1)
    assert(got.toSeq == expected.toSeq)
    assert(counters(s) == counters(sRef))
  }

  test("the visited set stays correct across an epoch wrap") {
    // Reach into this thread's pooled kernel: stamp every node with epoch 1,
    // jump to the last epoch, and search on past the wrap, where stale
    // stamps of 1 would hide unvisited nodes unless the set is cleared.
    val poolField = BeamSearch.getClass.getDeclaredField("pool")
    poolField.setAccessible(true)
    val kernel = poolField.get(BeamSearch).asInstanceOf[ThreadLocal[AnyRef]].get
    val epoch = kernel.getClass.getDeclaredField("epoch")
    epoch.setAccessible(true)
    def both(q: Array[Float]) = {
      val (s, sRef) = (new SearchStats, new SearchStats)
      val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
        neighbors = ring, stats = s)
      val expected = HeapBeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
        neighbors = ring, stats = sRef)
      assert(got.toSeq == expected.toSeq)
      assert(counters(s) == counters(sRef))
    }
    epoch.setInt(kernel, 0)
    BeamSearch.search(queries(0), i => vs.dist2(i, queries(0)), Seq(0), beam = 60, k = 10,
      neighbors = completeNeighbors(60)) // stamps all 60 nodes
    epoch.setInt(kernel, Int.MaxValue - 1)
    queries.foreach(both)
    assert(epoch.getInt(kernel) == queries.length - 1)
  }

  test("entries rejected by visit yield empty results") {
    val got = BeamSearch.search(queries(0), i => vs.dist2(i, queries(0)), Seq(0),
      beam = 10, k = 10, neighbors = completeNeighbors(60), visit = _ => false)
    assert(got.isEmpty)
  }
}
