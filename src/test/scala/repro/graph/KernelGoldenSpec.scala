package repro.graph

import java.nio.ByteBuffer
import java.util.zip.CRC32
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{ElementalGraphBuilder, IRangeGraph}
import repro.data.{GroundTruth, Workload}

/** Golden checksums of the builds, which call the search kernel internally
  * and so cannot be replayed on [[HeapBeamSearch]], and the counter floor
  * of a fixed-seed query batch: every value below was recorded with the
  * heap-based kernel. A change to the kernel, the builds, the pruning or the
  * edge selection that moves any index byte, result bit or counter fails
  * here.
  */
class KernelGoldenSpec extends AnyFunSuite {

  private def crc(ints: Iterator[Int]): Long = {
    val c = new CRC32
    val b = ByteBuffer.allocate(4)
    ints.foreach { i => b.clear(); b.putInt(i); c.update(b.array, 0, 4) }
    c.getValue
  }

  private def resultCrc(results: Iterator[Array[Candidate]]): Long =
    crc(results.flatMap(cs =>
      Iterator(cs.length) ++ cs.iterator.flatMap(c => Iterator(c.id, java.lang.Float.floatToRawIntBits(c.dist)))))

  private def totals(s: SearchStats): (Long, Long, Long) =
    (s.distComputations, s.nodesExpanded, s.edgesScanned)

  private val vs = TestData.clusteredVs(1024, 8, clusters = 8, seed = 501)
  private val queries = TestData.nearQueries(vs, 100, seed = 502)
  private val identical = new VecStore(4, 300, Array.tabulate(1200)(i => (i % 4).toFloat))

  test("elemental graphs: CRC32 of every layer") {
    for ((label, data, m, ef, expected) <- Seq(
           ("clustered n = 1024", vs, 8, 40, 1283787851L),
           ("identical vectors n = 300", identical, 8, 20, 41698781L))) {
      val g = ElementalGraphBuilder.build(data, m, ef)
      val got = crc(g.layers.iterator.flatMap(_.iterator))
      assert(got == expected, s"$label: CRC32 $got")
    }
  }

  test("iRangeGraph mixed-workload batch: result CRC32, counter totals and recall") {
    val ir = IRangeGraph.build(vs, m = 8, ef = 40)
    val ranges = Workload.mixed(vs.n, queries.length, seed = 503)
    val stats = new SearchStats
    val results = queries.indices.map { qi =>
      ir.search(queries(qi), ranges(qi).L, ranges(qi).R, 10, 40, stats = stats)
    }
    val gt = queries.indices.toArray.map(qi =>
      BruteForce.topKIds(vs, queries(qi), ranges(qi).L, ranges(qi).R, 10))
    val recall = GroundTruth.meanRecall(gt, results.map(_.map(_.id)).toArray)
    val got = (resultCrc(results.iterator), totals(stats), recall)
    assert(got == ((3784070395L, (5269L, 2667L, 14837L), 0.998)), s"got $got")
  }

  test("HNSW: build checksum, result CRC32 and counter totals") {
    val h = Hnsw.buildAll(vs, m = 8, efConstruction = 40)
    val build = (h.edgeCount, h.maxLevel, h.entry,
      crc((0 until vs.n).iterator.flatMap(u => h.baseNeighbors(u).iterator)))
    val stats = new SearchStats
    val results = queries.iterator.map(q => h.search(q, 10, 40, stats = stats)).toArray
    val got = (build, resultCrc(results.iterator), totals(stats))
    assert(got == (((9331L, 3, 171, 1253019310L), 1447266377L, (11758L, 4003L, 36516L))), s"got $got")
  }

  test("incremental graphs: build checksums, result CRC32 and counter totals") {
    val vamana = IncrementalGraph.build(vs, (0 until vs.n).reverse, 8, 40, alpha = 1.2f)
    val serf = IncrementalGraph.build(vs, 0 until vs.n, 8, 40, recordLifespans = true)
    val build = (crc((0 until vs.n).iterator.flatMap(u => vamana.neighbors(u).iterator)),
      crc((0 until vs.n).iterator.flatMap(u => serf.neighborsAsOf(u, u + 1 + u / 2).iterator)),
      serf.storedEdges)
    val stats = new SearchStats
    val results = queries.indices.iterator.map { qi =>
      if (qi % 2 == 0) vamana.search(queries(qi), Seq(0), 10, 40, stats = stats)
      else serf.searchAsOf(queries(qi), Seq(0), 10, 40, 10 * qi, stats = stats)
    }.toArray
    val got = (build, resultCrc(results.iterator), totals(stats))
    assert(got == (((2803579391L, 646262912L, 9466L), 421080045L, (12994L, 4774L, 32153L))), s"got $got")
  }
}
