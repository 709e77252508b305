package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core.{BasicSearch, IRangeGraph, MultiAttr}
import repro.graph.{Candidate, Hnsw, IncrementalGraph}

/** Every RFANN entry point rejects the same bad queries with an
  * `IllegalArgumentException` before it touches a vector: a wrong
  * dimension, a NaN component, k <= 0, beam < k, L > R and R >= n. The
  * range-free substrate searches (HNSW and the incremental graph) reject a
  * wrong dimension, a NaN component, k <= 0 and ef < 1.
  */
class InvalidQuerySpec extends AnyFunSuite {

  private val n = 60
  private val vs = TestData.clusteredVs(n, 6, clusters = 3, seed = 601)
  private val q = TestData.nearQueries(vs, 1, seed = 602)(0)
  private val (l, r) = (10, 49)
  private lazy val ir = IRangeGraph.build(vs, 8, 30)
  private lazy val hnsw = Hnsw.buildAll(vs, 8, 30)
  private val attr2Rank = Array.tabulate(n)(i => n - 1 - i)

  private type Search = (Array[Float], Int, Int, Int, Int) => Array[Candidate]

  /** (method, search, whether it takes a beam). */
  private lazy val methods: Seq[(String, Search, Boolean)] = {
    val oracle = OracleHnsw.build(vs, Array((l, r)), 8, 30)
    val milvus = MilvusLike.build(vs, 3, 8, 30)
    val superPost = SuperPostFiltering.build(vs, 8, 30, minWindow = 16)
    val fVamana = FilteredVamana.build(vs, 3, 8, 30)
    val sVamana = StitchedVamana.build(vs, 3, 8, 30)
    val serf = SegmentSerf.build(vs, 3, 8, 30)
    Seq(
      ("iRangeGraph", ir.search(_, _, _, _, _), true),
      ("iRangeGraph-", ir.search(_, _, _, _, _, skipLayers = false), true),
      ("MultiAttr", MultiAttr.search(ir, attr2Rank, _, _, _, 0, n - 1, _, _, MultiAttr.InFilter), true),
      ("BasicSearch", BasicSearch.search(vs, ir.graphs, _, _, _, _, _), true),
      ("PostFiltering", PostFiltering.search(hnsw, _, _, _, _, _), true),
      ("InFiltering", InFiltering.search(hnsw, _, _, _, _, _), true),
      ("PreFiltering", (q, l, r, k, _) => PreFiltering.search(vs, q, l, r, k), false),
      ("OracleHnsw", oracle.search(_, _, _, _, _), true),
      ("MilvusLike", milvus.search(_, _, _, _, _), true),
      ("SuperPostFiltering", superPost.search(_, _, _, _, _), true),
      ("FilteredVamana", fVamana.search(_, _, _, _, _), true),
      ("StitchedVamana", sVamana.search(_, _, _, _, _), true),
      ("SegmentSerf", serf.search(_, _, _, _, _), true))
  }

  /** (case, query, L, R, k, beam, applies only to methods with a beam). */
  private val bad: Seq[(String, Array[Float], Int, Int, Int, Int, Boolean)] = Seq(
    ("dimension too small", q.take(5), l, r, 10, 40, false),
    ("dimension too large", q :+ 0f, l, r, 10, 40, false),
    ("NaN component", q.updated(2, Float.NaN), l, r, 10, 40, false),
    ("k = 0", q, l, r, 0, 40, false),
    ("k < 0", q, l, r, -1, 40, false),
    ("beam < k", q, l, r, 10, 9, true),
    ("L > R", q, r, l, 10, 40, false),
    ("R >= n", q, l, n, 10, 40, false),
    ("L < 0", q, -1, r, 10, 40, false))

  test("every method rejects every bad query and answers the good one") {
    for ((name, search, usesBeam) <- methods) {
      for ((label, bq, bl, br, k, beam, beamOnly) <- bad if usesBeam || !beamOnly)
        withClue(s"$name, $label: ") {
          intercept[IllegalArgumentException](search(bq, bl, br, k, beam))
        }
      val good = search(q, l, r, 10, 40)
      assert(good.nonEmpty && good.forall(c => c.id >= l && c.id <= r), name)
    }
  }
  /** (substrate search, (q, k, ef) => result). */
  private lazy val substrates: Seq[(String, (Array[Float], Int, Int) => Array[Candidate])] = {
    val inc = IncrementalGraph.build(vs, 0 until n, 8, 30)
    val serfGraph = IncrementalGraph.build(vs, 0 until n, 8, 30, recordLifespans = true)
    Seq(
      ("Hnsw.search", hnsw.search(_, _, _)),
      ("Hnsw.searchBase", hnsw.searchBase(_, Seq(l), _, _)),
      ("IncrementalGraph.search", inc.search(_, Seq(0), _, _)),
      ("IncrementalGraph.searchAsOf", serfGraph.searchAsOf(_, Seq(0), _, _, n)))
  }

  /** (case, query, k, ef). */
  private val badKnn: Seq[(String, Array[Float], Int, Int)] = Seq(
    ("dimension too small", q.take(5), 10, 40),
    ("dimension too large", q :+ 0f, 10, 40),
    ("NaN component", q.updated(2, Float.NaN), 10, 40),
    ("k = 0", q, 0, 40),
    ("k < 0", q, -1, 40),
    ("ef = 0", q, 10, 0),
    ("ef < 0", q, 10, -1))

  test("every substrate search rejects every bad query and answers the good one") {
    for ((name, search) <- substrates) {
      for ((label, bq, k, ef) <- badKnn)
        withClue(s"$name, $label: ") {
          intercept[IllegalArgumentException](search(bq, k, ef))
        }
      assert(search(q, 10, 40).length == 10, name)
      assert(search(q, 10, 1).length == 10, s"$name, ef < k searches with beam k")
    }
  }
}
