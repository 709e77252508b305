package rfbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import java.util.concurrent.CountDownLatch
import org.apache.spark.sql.SparkSession
import repro.bench.MethodSuite
import repro.core.{EdgeSelection, ElementalGraphBuilder, ElementalGraphs, IRangeGraph, MultiAttr, SegmentTree}
import repro.data.{GroundTruth, RfDataset, VectorData, Workload}
import repro.graph.{BruteForce, Candidate, SearchStats, VecStore}
import scala.collection.mutable

/** One workload: a dataset analog, its query kind, beam width and the
  * number of closed-loop clients. Why each exists is in BENCHMARK.json.
  */
final case class Spec(name: String, dataset: String, multiAttr: Boolean, beam: Int, clients: Int,
                      queries: Int)

/** A check the run cannot continue past: ground truth or the layer build disagrees. */
final class Mismatch(msg: String) extends Exception(msg)

/** A generated workload: vectors, query ranges and exact ground truth. For
  * single-attribute workloads the A₂ range is the whole rank space.
  */
final class Prepared(val spec: Spec, val seed: Long, val ds: RfDataset,
                     val l1: Array[Int], val r1: Array[Int],
                     val l2: Array[Int], val r2: Array[Int],
                     val gt: Array[Array[Int]]) {
  def vs: VecStore = ds.vs
  def nq: Int = l1.length

  def allowed(qid: Int): Int => Boolean = {
    val (a, b, c, d, rank2) = (l1(qid), r1(qid), l2(qid), r2(qid), ds.attr2Rank)
    if (spec.multiAttr) id => id >= a && id <= b && rank2(id) >= c && rank2(id) <= d
    else id => id >= a && id <= b
  }

  def problem(qid: Int, res: Array[Candidate]): String = {
    val q = ds.queries(qid)
    Judge.problem(res, Main.K, allowed(qid), id => vs.dist2(id, q))
  }

  /** The program's search for this workload; `stats` may be null. */
  def searcher(ir: IRangeGraph, stats: SearchStats): Int => Array[Candidate] =
    if (!spec.multiAttr)
      qid => ir.search(ds.queries(qid), l1(qid), r1(qid), Main.K, spec.beam, stats = stats)
    else
      qid => MultiAttr.search(ir, ds.attr2Rank, ds.queries(qid), l1(qid), r1(qid), l2(qid), r2(qid),
        Main.K, spec.beam, MultiAttr.Probabilistic(seed * 1000003L + qid), stats)
}

/** One closed-loop segment over all clients: the best (lowest) latency
  * of each query id over its executions (Long.MaxValue if never run).
  */
final class Segment(val wallNs: Long, val bestNs: Array[Long], val tally: Tally,
                    val cpuNs: Long, val allocBytes: Long, val gcMs: Long,
                    val tracers: Seq[Tracer])

/** Segments of one measurement, spread over the run.
  *
  * Rate and latencies come from each query's best latency over all its
  * executions. Other tenants of the host slow everything on it for seconds
  * at a time (half-second rates of a pure compute loop range over ±20%), so
  * rates over any stretch of wall time spread widely between runs; each
  * query runs dozens of times across the run, and interference only ever
  * slows an execution, so its best one is the steadiest estimate of the
  * program's own cost. Pauses that hit every execution, such as contention
  * between clients, still count.
  */
final class Loop(val segments: Seq[Segment], clients: Int) {
  /** Best latency of every query that ran, ascending. */
  val bestNs: Array[Long] =
    Judge.minEach(segments.map(_.bestNs)).filter(_ != Long.MaxValue).sorted

  /** Closed-loop rate of `clients` clients whose queries each take their best latency. */
  def qps: Double = clients * 1e9 / meanLatNs
  def latencyUs(pp: Int): Double = Judge.percentile(bestNs, pp) / 1e3
  def meanLatNs: Double = bestNs.map(_.toDouble).sum / bestNs.length
  def wallNs: Long = segments.map(_.wallNs).sum
  def cpuNs: Long = segments.map(_.cpuNs).sum
  def allocBytes: Long = segments.map(_.allocBytes).sum
  def gcMs: Long = segments.map(_.gcMs).sum
  def tracers: Seq[Tracer] = segments.flatMap(_.tracers)
  def tally: Tally = { val t = new Tally; segments.foreach(s => t.add(s.tally)); t }
}

/** The benchmark: generates a workload from `--seed`, builds iRangeGraph,
  * runs a closed query loop for `--seconds` and prints one JSON line of
  * metrics. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
  * traced variant and reports the per-layer ones.
  *
  * Exit codes: 0 all outputs correct; 1 some query failed its checks or
  * recall fell below [[MinRecall]] (the JSON line is still printed); 2 ground
  * truth or the layer-by-layer build disagrees with the program (no JSON).
  */
object Main {
  val N = 4096
  val K = 10
  /** Builds per untraced run; setup_s is their median. Each build is
    * followed by one segment of the timed loop, and the traced run splits
    * its loops into as many segments.
    */
  val SetupRepeats = 3
  /** Queries per run whose Spark ground truth is re-derived by brute force. */
  val SpotChecks = 32
  /** Below this mean recall the index is broken, not merely slower. */
  val MinRecall = 0.8

  val Workloads: Seq[Spec] = Seq(
    Spec("mixed-ld-4c", "ytaudio-lite", multiAttr = false, beam = 20, clients = 4, queries = 2000),
    // One client completes about a tenth as many queries per second as
    // mixed-ld-4c; fewer distinct queries keep each one run often enough for
    // its best latency to settle.
    Spec("multiattr-plus", "ytrgb-lite", multiAttr = true, beam = 40, clients = 1, queries = 1000),
  )

  private val threadMx =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val spec = Workloads.find(_.name == opt("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${opt("workload")}"))
    val code =
      try run(spec, opt("seed").toLong, opt("seconds").toDouble, opt("trace") == "1", opt("work-dir"))
      catch {
        case e: Mismatch =>
          System.err.println(s"rfbench: ${e.getMessage}")
          2
      }
    System.out.flush()
    sys.exit(code)
  }

  def run(spec: Spec, seed: Long, seconds: Double, traced: Boolean, workDir: String): Int = {
    val tracer = new Tracer()
    val root = tracer.open(Tracer.Run)
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("rfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .config("spark.sql.shuffle.partitions", Runtime.getRuntime.availableProcessors().toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val (p, gtSeconds) = try prepare(spark, spec, seed, tracer, root) finally spark.stop()

    val total = new Tally
    val (metrics, recall) =
      if (traced) perLayer(p, seconds, gtSeconds, total, tracer, root, workDir)
      else endToEnd(p, seconds, total)

    val correct = total.failed == 0 && recall >= MinRecall
    if (total.firstFailure != null) System.err.println(s"rfbench: failed ${total.firstFailure}")
    if (recall < MinRecall) System.err.println(s"rfbench: recall $recall below $MinRecall")
    metrics.sortBy(_._1).foreach { case (name, v, unit) => println(s"# $name = $v $unit") }
    println(resultJson(correct, total, metrics.toSeq))
    if (correct) 0 else 1
  }

  type Metrics = mutable.ArrayBuffer[(String, Double, String)]

  /** The untraced run: [[SetupRepeats]] builds, each followed by one timed
    * loop segment. Returns the end-to-end metrics and the recall.
    */
  def endToEnd(p: Prepared, seconds: Double, total: Tally): (Metrics, Double) = {
    val buildSeconds = mutable.ArrayBuffer.empty[Double]
    val segs = mutable.ArrayBuffer.empty[Segment]
    var refs: Array[Array[Candidate]] = null
    var ir: IRangeGraph = null
    for (_ <- 0 until SetupRepeats) {
      val t0 = System.nanoTime()
      ir = IRangeGraph.build(p.vs, MethodSuite.M, MethodSuite.EF)
      buildSeconds += (System.nanoTime() - t0) / 1e9
      if (refs == null) refs = verifyPass(p, p.searcher(ir, null), total)
      val built = ir
      segs += closedLoop(p, seconds / SetupRepeats, () => p.searcher(built, null), refs, traced = false)
    }
    val loop = new Loop(segs.toSeq, p.spec.clients)
    total.add(loop.tally)
    val best = loop.bestNs
    require(Judge.beyond(best.length, 99000) >= 10, s"only ${best.length} queries ran")
    val (tailPp, tailNs) = Judge.tail(best).get
    println(f"# ${p.spec.name}: ${loop.tally.attempted} timed executions of ${best.length} queries; " +
      f"highest percentile of best latency with >= 10 beyond: p${tailPp / 1000.0}%.3f = ${tailNs / 1e3}%.1f us; " +
      f"builds ${buildSeconds.mkString(" ")} s")
    val recall = meanRecall(p, refs)
    val metrics: Metrics = mutable.ArrayBuffer(
      ("setup_s", Judge.median(buildSeconds.toSeq), "s"),
      ("qps", loop.qps, "1/s"),
      ("latency_p50_us", loop.latencyUs(50000), "us"),
      ("latency_p99_us", loop.latencyUs(99000), "us"),
      ("recall_at_10", recall, "ratio"),
      ("index_mb", ir.sizeBytes / 1e6, "MB"),
      ("success_rate", 1.0 - total.failed.toDouble / total.attempted, "ratio"))
    (metrics, recall)
  }

  /** The traced run: a layer-by-layer build checked against
    * `IRangeGraph.build`, untraced and traced loop segments in turn, and the
    * distance and selection kernels timed alone. Writes the spans under
    * `workDir` and returns the per-layer metrics and the recall.
    */
  def perLayer(p: Prepared, seconds: Double, gtSeconds: Double, total: Tally,
               tracer: Tracer, root: Int, workDir: String): (Metrics, Double) = {
    val buildSpan = tracer.open(Tracer.Build, root)
    val (byLayer, layerSpans) = buildByLayer(p.vs, tracer, buildSpan)
    tracer.close(buildSpan)
    val ir = IRangeGraph.build(p.vs, MethodSuite.M, MethodSuite.EF)
    for (lay <- 0 until byLayer.numLayers)
      if (!java.util.Arrays.equals(byLayer.layers(lay), ir.graphs.layers(lay)))
        throw new Mismatch(s"layer $lay built by buildSegmentLayer differs from IRangeGraph.build")

    val stats = new SearchStats
    val refs = verifyPass(p, p.searcher(ir, stats), total)
    // Untraced and traced segments alternate, so both see the same host.
    val segSeconds = seconds / (2 * SetupRepeats)
    val pairs = (0 until SetupRepeats).map { _ =>
      (closedLoop(p, segSeconds, () => p.searcher(ir, null), refs, traced = false),
       closedLoop(p, segSeconds, () => p.searcher(ir, new SearchStats), refs, traced = true))
    }
    val plain = new Loop(pairs.map(_._1), p.spec.clients)
    val loop = new Loop(pairs.map(_._2), p.spec.clients)
    total.add(plain.tally)
    total.add(loop.tally)

    val distSpan = tracer.open(Tracer.Dist, root)
    val distNs = distNsPerCall(p.vs, p.ds.queries, p.seed)
    tracer.close(distSpan)
    val selectSpan = tracer.open(Tracer.Select, root)
    val (selectNs, selectEdges) = selectCost(ir.graphs, p, refs)
    tracer.close(selectSpan)

    val nq = p.nq.toDouble
    val distCalls = stats.distComputations / nq
    val expansions = stats.nodesExpanded / nq
    val metrics: Metrics = mutable.ArrayBuffer(
      ("graph.dist.ns_per_call", distNs, "ns"),
      ("graph.dist.calls_per_query", distCalls, "count"),
      ("graph.edges_scanned_per_query", stats.edgesScanned / nq, "count"),
      ("graph.edges_new_ratio", stats.distComputations.toDouble / stats.edgesScanned, "ratio"),
      ("graph.beam.overhead_ns_per_expansion",
        (loop.meanLatNs - distCalls * distNs - expansions * selectNs) / expansions, "ns"),
      ("core.select.ns_per_call", selectNs, "ns"),
      ("core.select.edges_per_call", selectEdges, "count"),
      ("core.search.expansions_per_query", expansions, "count"),
      ("core.search.alloc_bytes_per_query", loop.allocBytes.toDouble / loop.tally.attempted, "B"),
      ("core.search.gc_share", loop.gcMs * 1e6 / loop.wallNs, "ratio"),
      ("core.search.offcpu_share", 1.0 - loop.cpuNs.toDouble / (p.spec.clients.toLong * loop.wallNs), "ratio"),
      ("data.gt_s", gtSeconds, "s"),
      ("data.gt_scan_mpairs_per_s", N.toDouble * p.nq / gtSeconds / 1e6, "Mpairs/s"),
      ("trace.overhead", 1.0 - loop.qps / plain.qps, "ratio"))
    // The leaf layer holds single-node segments and so no edges.
    for (l <- 0 until byLayer.numLayers - 1) {
      metrics += ((s"core.build.layer_${l}_s", tracer.durationNs(layerSpans(l)) / 1e9, "s"))
      metrics += ((s"core.build.layer_${l}_edges", byLayer.layers(l).count(_ >= 0).toDouble, "count"))
    }

    tracer.close(root)
    val dir = new java.io.File(workDir, "traces")
    dir.mkdirs()
    val path = new java.io.File(dir, s"${p.spec.name}-seed${p.seed}.jsonl").getPath
    Tracer.writeAll(path, tracer, loop.tracers.map(t => (t, root)))
    println(s"# spans written to $path")
    (metrics, meanRecall(p, refs))
  }

  /** Generates the dataset and ranges from `seed`, computes Spark ground
    * truth and spot-checks it by brute force. Returns the ground-truth seconds.
    */
  def prepare(spark: SparkSession, spec: Spec, seed: Long, tracer: Tracer,
              root: Int): (Prepared, Double) = {
    val (_, dim, clusters, specSeed) = VectorData.specs.find(_._1 == spec.dataset).get
    val genSpan = tracer.open(Tracer.Generate, root)
    val ds = VectorData.generate(spark, spec.dataset, N, dim, clusters, spec.queries,
      specSeed * 1000003L + seed)
    val (l1, r1, l2, r2) =
      if (spec.multiAttr) {
        val w = Workload.multiAttr(N, spec.queries, seed = seed)
        (w.map(_.L1), w.map(_.R1), w.map(_.L2), w.map(_.R2))
      } else {
        val w = Workload.mixed(N, spec.queries, seed = seed)
        (w.map(_.L), w.map(_.R), Array.fill(spec.queries)(0), Array.fill(spec.queries)(N - 1))
      }
    tracer.close(genSpan)

    val ranges1 = l1.zip(r1)
    val gtSpan = tracer.open(Tracer.GroundTruth, root)
    val gt =
      if (spec.multiAttr) GroundTruth.computeSpark(spark, ds.vs, ds.queries, ranges1, K, ds.attr2Rank, l2.zip(r2))
      else GroundTruth.computeSpark(spark, ds.vs, ds.queries, ranges1, K)
    tracer.close(gtSpan)
    val p = new Prepared(spec, seed, ds, l1, r1, l2, r2, gt)

    val spotSpan = tracer.open(Tracer.SpotCheck, root)
    val rnd = new SplittableRandom(seed)
    for (_ <- 0 until SpotChecks) {
      val qid = rnd.nextInt(spec.queries)
      val allowed = p.allowed(qid)
      val exact = BruteForce.topKIds(ds.vs, ds.queries(qid), l1(qid), r1(qid), K, allowed)
      if (!java.util.Arrays.equals(exact, gt(qid)))
        throw new Mismatch(s"Spark ground truth for query $qid is ${gt(qid).mkString(",")}, " +
          s"brute force gives ${exact.mkString(",")}")
    }
    tracer.close(spotSpan)
    (p, tracer.durationNs(gtSpan) / 1e9)
  }

  /** Runs every query once with full output checks; returns each answer
    * (null where the search threw) as the reference for the timed loops.
    */
  def verifyPass(p: Prepared, search: Int => Array[Candidate], tally: Tally): Array[Array[Candidate]] = {
    val refs = new Array[Array[Candidate]](p.nq)
    var qid = 0
    while (qid < p.nq) {
      Judge.runOne(qid, search, (q, res) => { refs(q) = res; p.problem(q, res) }, tally)
      qid += 1
    }
    refs
  }

  def meanRecall(p: Prepared, refs: Array[Array[Candidate]]): Double =
    p.gt.indices.map { qid =>
      Judge.recall(p.gt(qid), if (refs(qid) == null) Array.empty[Int] else refs(qid).map(_.id))
    }.sum / p.nq

  private def sameAnswer(a: Array[Candidate], b: Array[Candidate]): Boolean =
    a != null && b != null && a.length == b.length && {
      var i = 0
      while (i < a.length && a(i).id == b(i).id && a(i).dist == b(i).dist) i += 1
      i == a.length
    }

  /** `clients` threads each send their next query as soon as the previous
    * answer returns, cycling through the workload with a stride of
    * `clients`, until `seconds` have passed. An answer equal to the
    * verified reference passes; any other answer gets the full check.
    */
  def closedLoop(p: Prepared, seconds: Double, mkSearch: () => Int => Array[Candidate],
                 refs: Array[Array[Candidate]], traced: Boolean): Segment = {
    val clients = p.spec.clients
    val check = (qid: Int, res: Array[Candidate]) =>
      if (sameAnswer(res, refs(qid))) null else p.problem(qid, res)
    val go = new CountDownLatch(1)
    val startAt = new Array[Long](1)
    val best = Array.fill(clients)(Array.fill(p.nq)(Long.MaxValue))
    val tallies = Array.fill(clients)(new Tally)
    val tracers = Array.fill(clients)(if (traced) new Tracer(1 << 18) else null)
    val cpu, alloc, ends = new Array[Long](clients)
    val threads = (0 until clients).map { c =>
      new Thread(() => {
        val search = mkSearch()
        go.await()
        val cpu0 = threadMx.getCurrentThreadCpuTime
        val alloc0 = threadMx.getCurrentThreadAllocatedBytes
        val tr = tracers(c)
        val span = if (tr != null) tr.open(Tracer.SearchLoop) else -1
        val deadline = startAt(0) + (seconds * 1e9).toLong
        val b = best(c)
        var i = c
        while (System.nanoTime() < deadline) {
          val qid = i % p.nq
          val ns = Judge.runOne(qid, search, check, tallies(c), tr, span)
          if (ns < b(qid)) b(qid) = ns
          i += clients
        }
        ends(c) = System.nanoTime()
        if (tr != null) tr.close(span)
        cpu(c) = threadMx.getCurrentThreadCpuTime - cpu0
        alloc(c) = threadMx.getCurrentThreadAllocatedBytes - alloc0
      }, s"rfbench-client-$c")
    }
    threads.foreach(_.start())
    val gc0 = gcMillis()
    startAt(0) = System.nanoTime()
    go.countDown()
    threads.foreach(_.join())
    val gcMs = gcMillis() - gc0
    val tally = new Tally
    tallies.foreach(tally.add)
    new Segment(ends.max - startAt(0), Judge.minEach(best.toSeq), tally, cpu.sum, alloc.sum, gcMs,
      tracers.toSeq.filter(_ != null))
  }

  private def gcMillis(): Long = {
    var s = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => s += math.max(0L, b.getCollectionTime))
    s
  }

  /** Builds the index bottom-up one segment-tree layer at a time through
    * `ElementalGraphBuilder.buildSegmentLayer`, each layer a span with one
    * child span per segment. Returns the graphs and each layer's span id.
    */
  def buildByLayer(vs: VecStore, tracer: Tracer, parent: Int): (ElementalGraphs, Array[Int]) = {
    val n = vs.n
    val m = MethodSuite.M
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
    val spans = new Array[Int](depth)
    for (lay <- depth - 1 to 0 by -1) {
      val span = tracer.open(Tracer.BuildLayer, parent)
      spans(lay) = span
      segments(lay).foreach { case (l, r) =>
        val s = tracer.open(Tracer.BuildSegment, span)
        ElementalGraphBuilder.buildSegmentLayer(vs, layers, m, MethodSuite.EF, l, r, lay)
        tracer.close(s)
      }
      tracer.close(span)
    }
    (new ElementalGraphs(n, m, layers), spans)
  }

  /** Ns per `VecStore.dist2(id, q)` over random stored ids and workload
    * queries: the fastest of 7 repetitions, as for the query latencies.
    */
  def distNsPerCall(vs: VecStore, queries: Array[Array[Float]], seed: Long): Double = {
    val rnd = new SplittableRandom(seed)
    val ids = Array.fill(4096)(rnd.nextInt(vs.n))
    val qs = Array.fill(4096)(queries(rnd.nextInt(queries.length)))
    val calls = 1 << 21
    var sink = 0.0f
    val perCall = (0 until 7).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < calls) { sink += vs.dist2(ids(i & 4095), qs(i & 4095)); i += 1 }
      (System.nanoTime() - t0).toDouble / calls
    }
    if (sink.isNaN) System.err.println("rfbench: NaN distance")
    perCall.min
  }

  /** Ns per `EdgeSelection.select` call (fastest of 7 repetitions) and mean edges returned, on
    * (u, L, R) inputs drawn from the workload: u ranges over each query's
    * answer ids, [L, R] is that query's A₁ range.
    */
  def selectCost(g: ElementalGraphs, p: Prepared, refs: Array[Array[Candidate]]): (Double, Double) = {
    val us, ls, rs = mutable.ArrayBuffer.empty[Int]
    for (qid <- 0 until p.nq if refs(qid) != null; c <- refs(qid)) {
      us += c.id; ls += p.l1(qid); rs += p.r1(qid)
    }
    val (u, l, r) = (us.toArray, ls.toArray, rs.toArray)
    require(u.nonEmpty, "no select inputs")
    val out = new Array[Int](g.m + 1)
    val passes = math.max(1, 400000 / u.length)
    var edgeSum = 0L
    val perCall = (0 until 7).map { _ =>
      edgeSum = 0L
      val t0 = System.nanoTime()
      var pass = 0
      while (pass < passes) {
        var i = 0
        while (i < u.length) { edgeSum += EdgeSelection.select(g, u(i), l(i), r(i), out); i += 1 }
        pass += 1
      }
      (System.nanoTime() - t0).toDouble / (passes.toLong * u.length)
    }
    (perCall.min, edgeSum.toDouble / (passes.toLong * u.length))
  }

  def resultJson(correct: Boolean, t: Tally, metrics: Seq[(String, Double, String)]): String = {
    val body = metrics.map { case (name, v, unit) =>
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
      s""""$name": {"value": $v, "unit": "$unit"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": ${t.attempted}, "failed": ${t.failed}, "metrics": {$body}}"""
  }
}
