package repro.graph

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.baselines._
import repro.core.{BasicSearch, EdgeSelection, IRangeGraph, MultiAttr, SegmentTree}
import repro.data.Workload

/** Differential test of the search kernel: every method's search, replayed
  * with [[HeapBeamSearch]] in place of [[BeamSearch]], must return the same
  * candidates (ids and float bits) and the same [[SearchStats]] counters.
  *
  * Methods call `BeamSearch` directly, so each has a replay here: the same
  * kernel calls with the same arguments, written against a `Kernel`. Every
  * replay is also checked against its method run as is, so a replay that
  * drifts from its method fails too. Pre-filtering calls no kernel. The
  * builds call the kernel internally and are pinned by [[KernelGoldenSpec]].
  */
class KernelDifferentialSpec extends AnyFunSuite {

  private type Kernel = (Array[Float], Int => Float, Seq[Int], Int, Int,
    Int => Array[Int], Int => Boolean, Int => Boolean, SearchStats) => Array[Candidate]

  private val current: Kernel = BeamSearch.search(_, _, _, _, _, _, _, _, _)
  private val reference: Kernel = HeapBeamSearch.search(_, _, _, _, _, _, _, _, _)

  private val M = 8
  private val EF = 40
  private val kBeams = Seq((1, 1), (10, 10), (5, 40))
  private val all: Int => Boolean = _ => true
  private def inRange(l: Int, r: Int): Int => Boolean = i => i >= l && i <= r

  private final class Fixture(val label: String, val vs: VecStore) {
    val n: Int = vs.n
    val queries: Array[Array[Float]] = TestData.nearQueries(vs, 12, seed = 401)
    // Subset 0 of the mixed workload is the full range; later ones shrink to one rank.
    val ranges: Array[(Int, Int)] = Workload.mixed(n, queries.length, seed = 402).map(r => (r.L, r.R))
    val ranges2: Array[(Int, Int)] =
      Workload.multiAttr(n, queries.length, exp = 1, seed = 403).map(r => (r.L2, r.R2))
    val attr2Rank: Array[Int] = {
      val rnd = new SplittableRandom(404)
      val a = Array.tabulate(n)(identity)
      for (i <- (1 until n).reverse) { val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t }
      a
    }
    private val few = math.min(4, n)
    lazy val ir: IRangeGraph = IRangeGraph.build(vs, M, EF)
    lazy val hnsw: Hnsw = Hnsw.buildAll(vs, M, EF)
    lazy val inc: IncrementalGraph = IncrementalGraph.build(vs, 0 until n, M, EF, alpha = 1.2f)
    lazy val oracle: OracleHnsw = OracleHnsw.build(vs, ranges, M, EF)
    lazy val milvus: MilvusLike = MilvusLike.build(vs, few, M, EF)
    lazy val superPost: SuperPostFiltering =
      SuperPostFiltering.build(vs, M, EF, minWindow = math.min(16, n))
    lazy val fVamana: FilteredVamana = FilteredVamana.build(vs, few, M, EF)
    lazy val sVamana: StitchedVamana = StitchedVamana.build(vs, few, M, EF)
    lazy val serf: SegmentSerf = SegmentSerf.build(vs, few, M, EF)
  }

  private val fixtures: Seq[Fixture] =
    Seq(1, 2, 3, 40, 600).map(n =>
      new Fixture(s"n = $n", TestData.clusteredVs(n, 8, clusters = 4, seed = 400L + n))) :+
      new Fixture("identical vectors", new VecStore(4, 200, Array.tabulate(800)(i => (i % 4).toFloat)))

  private def bits(cs: Array[Candidate]): Seq[(Int, Int)] =
    cs.toSeq.map(c => (c.id, java.lang.Float.floatToRawIntBits(c.dist)))

  private def counters(s: SearchStats): (Long, Long, Long) =
    (s.distComputations, s.nodesExpanded, s.edgesScanned)

  /** Runs `method` and its replay on both kernels and asserts all three
    * agree; returns the expansions, so a test can check it searched at all.
    */
  private def assertSame(what: => String, method: SearchStats => Array[Candidate],
                         replay: (Kernel, SearchStats) => Array[Candidate]): Long = {
    val (sm, sc, sr) = (new SearchStats, new SearchStats, new SearchStats)
    val got = method(sm)
    val viaCurrent = replay(current, sc)
    val viaReference = replay(reference, sr)
    assert(bits(viaCurrent) == bits(got) && counters(sc) == counters(sm),
      s"$what: replay differs from the method")
    assert(bits(viaReference) == bits(viaCurrent), s"$what: results differ")
    assert(counters(sr) == counters(sc), s"$what: counters differ")
    sc.nodesExpanded
  }

  /** Asserts `check` over every fixture, query and (k, beam). */
  private def forAllQueries(check: (Fixture, Int, Int, Int) => Long): Unit = {
    var expansions = 0L
    for (fx <- fixtures; qi <- fx.queries.indices; (k, beam) <- kBeams)
      expansions += check(fx, qi, k, beam)
    assert(expansions > 0, "no search expanded a node")
  }

  private def hnswLevel(h: Hnsw, level: Int): Int => Array[Int] =
    (u: Int) => h.neighborsAt(level, u).toArray

  /** Replay of `Hnsw.search`: greedy descent, then the base-layer search. */
  private def hnswSearch(kn: Kernel, h: Hnsw, q: Array[Float], k: Int, ef: Int,
                         visit: Int => Boolean, admit: Int => Boolean,
                         stats: SearchStats): Array[Candidate] = {
    val dist = (i: Int) => h.vs.dist2(i, q)
    var ep = h.entry
    for (l <- h.maxLevel until 0 by -1) {
      val res = kn(q, dist, Seq(ep), 1, 1, hnswLevel(h, l), all, all, null)
      if (res.nonEmpty) ep = res(0).id
    }
    kn(q, dist, Seq(ep), math.max(ef, k), k, hnswLevel(h, 0), visit, admit, stats)
  }

  /** Replay of `IncrementalGraph.search` (t < 0) or `searchAsOf(t)`. */
  private def incSearch(kn: Kernel, g: IncrementalGraph, q: Array[Float], entries: Seq[Int],
                        k: Int, ef: Int, visit: Int => Boolean, admit: Int => Boolean,
                        stats: SearchStats, t: Int = -1): Array[Candidate] =
    kn(q, (i: Int) => g.vs.dist2(i, q), entries, math.max(ef, k), k,
      if (t < 0) g.neighbors(_) else g.neighborsAsOf(_, t), visit, admit, stats)

  test("IRangeGraph.search, with layer skipping on and off") {
    for (skip <- Seq(true, false)) forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val ir = fx.ir
      assertSame(s"${fx.label} q$qi k$k beam$beam skip=$skip",
        s => ir.search(q, l, r, k, beam, skipLayers = skip, stats = s),
        (kn, s) => {
          val scratch = new Array[Int](ir.m + 1)
          kn(q, i => ir.vs.dist2(i, q), IRangeGraph.entries(l, r), beam, k,
            u => { EdgeSelection.select(ir.graphs, u, l, r, scratch, skip); scratch },
            all, all, s)
        })
    }
  }

  /** Replay of `MultiAttr`'s traversal filter for `strategy`. */
  private def multiAttrVisit(strategy: MultiAttr.Strategy, inRange2: Int => Boolean,
                             entries: Seq[Int]): Int => Boolean = strategy match {
    case MultiAttr.PostFilter => all
    case MultiAttr.InFilter => i => inRange2(i) || entries.contains(i)
    case MultiAttr.Probabilistic(seed) =>
      val rnd = new SplittableRandom(seed)
      var t = 0
      i => {
        if (inRange2(i)) { t = 0; true }
        else {
          val go = rnd.nextDouble() < math.exp(-t.toDouble)
          if (go) t += 1
          go
        }
      }
  }

  for (strategy <- Seq(MultiAttr.PostFilter, MultiAttr.InFilter, MultiAttr.Probabilistic(405L)))
    test(s"MultiAttr.search, $strategy") {
      forAllQueries { (fx, qi, k, beam) =>
        val q = fx.queries(qi); val (l1, r1) = fx.ranges(qi); val (l2, r2) = fx.ranges2(qi)
        val ir = fx.ir
        assertSame(s"${fx.label} q$qi k$k beam$beam",
          s => MultiAttr.search(ir, fx.attr2Rank, q, l1, r1, l2, r2, k, beam, strategy, s),
          (kn, s) => {
            val scratch = new Array[Int](ir.m + 1)
            val inRange2 = (i: Int) => fx.attr2Rank(i) >= l2 && fx.attr2Rank(i) <= r2
            val entries = IRangeGraph.entries(l1, r1)
            kn(q, i => ir.vs.dist2(i, q), entries, beam, k,
              u => { EdgeSelection.select(ir.graphs, u, l1, r1, scratch); scratch },
              multiAttrVisit(strategy, inRange2, entries), inRange2, s)
          })
      }
    }

  test("BasicSearch.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val g = fx.ir.graphs
      assertSame(s"${fx.label} q$qi k$k beam$beam",
        s => BasicSearch.search(fx.vs, g, q, l, r, k, beam, s),
        (kn, s) => BruteForce.mergeTopK(SegmentTree.decompose(g.n, l, r).map { case (lay, sl, sr) =>
          if (sl == sr) Array(Candidate(sl, fx.vs.dist2(sl, q)))
          else kn(q, i => fx.vs.dist2(i, q), Seq(SegmentTree.mid(sl, sr), sl, sr).distinct,
            beam, k, u => g.neighbors(lay, u),
            all, all, s)
        }, k))
    }
  }

  test("Hnsw.search and Hnsw.searchBase") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val h = fx.hnsw
      val entry = Seq(l + (r - l) / 2)
      assertSame(s"${fx.label} q$qi k$k beam$beam search",
        s => h.search(q, k, beam, stats = s),
        (kn, s) => hnswSearch(kn, h, q, k, beam, all, all, s)) +
      assertSame(s"${fx.label} q$qi k$k beam$beam searchBase",
        s => h.searchBase(q, entry, k, beam, visit = _ % 3 != 0, admit = inRange(l, r), stats = s),
        (kn, s) => kn(q, i => h.vs.dist2(i, q), entry, math.max(beam, k), k, hnswLevel(h, 0),
          _ % 3 != 0, inRange(l, r), s))
    }
  }

  test("IncrementalGraph.search and IncrementalGraph.searchAsOf") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi)
      val g = fx.inc; val serfGraph = fx.serf.graphs(0)
      assertSame(s"${fx.label} q$qi k$k beam$beam search",
        s => g.search(q, Seq(0, r), k, beam, admit = inRange(l, r), stats = s),
        (kn, s) => incSearch(kn, g, q, Seq(0, r), k, beam, all, inRange(l, r), s)) +
      assertSame(s"${fx.label} q$qi k$k beam$beam searchAsOf",
        s => serfGraph.searchAsOf(q, Seq(0), k, beam, r + 1, visit = _ <= r, stats = s),
        (kn, s) => incSearch(kn, serfGraph, q, Seq(0), k, beam, _ <= r, all, s, t = r + 1))
    }
  }

  test("PostFiltering.search and InFiltering.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val h = fx.hnsw
      assertSame(s"${fx.label} q$qi k$k beam$beam post",
        s => PostFiltering.search(h, q, l, r, k, beam, s),
        (kn, s) => hnswSearch(kn, h, q, k, beam, all, inRange(l, r), s)) +
      assertSame(s"${fx.label} q$qi k$k beam$beam in",
        s => InFiltering.search(h, q, l, r, k, beam, s),
        (kn, s) => kn(q, i => h.vs.dist2(i, q), Seq(l + (r - l) / 2), math.max(beam, k), k,
          hnswLevel(h, 0), inRange(l, r), inRange(l, r), s))
    }
  }

  test("OracleHnsw.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi)
      assertSame(s"${fx.label} q$qi k$k beam$beam",
        s => fx.oracle.search(q, l, r, k, beam, s),
        (kn, s) => hnswSearch(kn, fx.oracle.indexes((l, r)), q, k, beam, all, all, s))
    }
  }

  test("MilvusLike.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val ml = fx.milvus
      assertSame(s"${fx.label} q$qi k$k beam$beam",
        s => ml.search(q, l, r, k, beam, s),
        (kn, s) =>
          if (r - l + 1 <= ml.bruteForceThreshold) BruteForce.topK(fx.vs, q, l, r, k)
          else BruteForce.mergeTopK(ml.indexes.toSeq.filter(h => h.hi >= l && h.lo <= r)
            .map(h => hnswSearch(kn, h, q, k, beam, all, inRange(l, r), s)), k))
    }
  }

  test("SuperPostFiltering.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi)
      assertSame(s"${fx.label} q$qi k$k beam$beam",
        s => fx.superPost.search(q, l, r, k, beam, s),
        (kn, s) => {
          val (lo, hi, h) = fx.superPost.coveringWindow(l, r)
          if (hi - lo + 1 <= 2 * k) BruteForce.topK(fx.vs, q, l, r, k)
          else hnswSearch(kn, h, q, k, beam, all, inRange(l, r), s)
        })
    }
  }

  test("FilteredVamana.search and StitchedVamana.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi)
      val buckets = fx.fVamana.buckets
      val bounds = FilteredDiskann.bucketBounds(fx.n, buckets)
      val (bLo, bHi) = (FilteredDiskann.bucketOf(fx.n, buckets, l), FilteredDiskann.bucketOf(fx.n, buckets, r))
      val mids = (bLo to bHi).map { b => val (lo, hi) = bounds(b); lo + (hi - lo) / 2 }
      assertSame(s"${fx.label} q$qi k$k beam$beam filtered",
        s => fx.fVamana.search(q, l, r, k, beam, s),
        (kn, s) => incSearch(kn, fx.fVamana.graph, q, mids, k, beam,
          inRange(bounds(bLo)._1, bounds(bHi)._2), inRange(l, r), s)) +
      assertSame(s"${fx.label} q$qi k$k beam$beam stitched",
        s => fx.sVamana.search(q, l, r, k, beam, s),
        (kn, s) => BruteForce.mergeTopK((bLo to bHi).map(b =>
          incSearch(kn, fx.sVamana.graphs(b), q, Seq(mids(b - bLo)), k, beam, all, inRange(l, r), s)), k))
    }
  }

  test("SegmentSerf.search") {
    forAllQueries { (fx, qi, k, beam) =>
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val serf = fx.serf
      assertSame(s"${fx.label} q$qi k$k beam$beam",
        s => serf.search(q, l, r, k, beam, s),
        (kn, s) => {
          val j = serf.lefts.lastIndexWhere(_ <= l)
          val base = serf.lefts(j)
          incSearch(kn, serf.graphs(j), q, Seq(base), k, beam, all, inRange(l, r), s, t = r + 1 - base)
        })
    }
  }
  test("the default admit equals an explicit admit-all, for k below, at and above beam") {
    val explicitAll: Int => Boolean = _ => true
    var expansions = 0L
    for (fx <- fixtures; qi <- fx.queries.indices; (k, beam) <- Seq((3, 10), (10, 10), (15, 5), (1, 1), (4, 1))) {
      val q = fx.queries(qi); val (l, r) = fx.ranges(qi); val ir = fx.ir
      val dist = (i: Int) => fx.vs.dist2(i, q)
      val scratch = new Array[Int](ir.m + 1)
      val graphs: Seq[(String, Seq[Int], Int => Array[Int], Int => Boolean)] = Seq(
        ("edge selection", IRangeGraph.entries(l, r),
          u => { EdgeSelection.select(ir.graphs, u, l, r, scratch); scratch }, all),
        ("hnsw base, visit filtered", Seq(l + (r - l) / 2), hnswLevel(fx.hnsw, 0), _ % 3 != 0))
      for ((name, entries, nbrs, visit) <- graphs) {
        val (sd, se) = (new SearchStats, new SearchStats)
        val byDefault = BeamSearch.search(q, dist, entries, beam, k, nbrs, visit, stats = sd)
        val explicit = BeamSearch.search(q, dist, entries, beam, k, nbrs, visit, explicitAll, se)
        val what = s"${fx.label} q$qi k$k beam$beam $name"
        assert(bits(byDefault) == bits(explicit), s"$what: results differ")
        assert(counters(sd) == counters(se), s"$what: counters differ")
        assert(byDefault.length == math.min(k, sd.distComputations), what)
        expansions += sd.nodesExpanded
      }
    }
    assert(expansions > 0, "no search expanded a node")
  }
}
