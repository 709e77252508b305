package repro.bench

import repro.baselines._
import repro.core.IRangeGraph
import repro.data.RfDataset
import repro.graph.Hnsw

/** A built RFANN method: name, cost accounting and a search closure
  * `(q, L, R, k, beam) => result ids` — the uniform interface every bench
  * sweeps over.
  */
final case class BuiltMethod(
    name: String,
    indexBytes: Long,
    buildSeconds: Double,
    usesBeam: Boolean,
    searchFn: (Array[Float], Int, Int, Int, Int) => Array[Int],
)

/** All single-attribute methods of Section 5.1 built over one dataset, with
  * build times measured like-for-like in CPU seconds (same JVM). The wall
  * time of the parallel iRangeGraph build is reported as an extra Table 3
  * row.
  */
final case class MethodSuite(
    ds: RfDataset,
    irg: IRangeGraph,
    hnswAll: Hnsw,
    hnswAllBuildSeconds: Double,
    irgParallelWallSeconds: Double,
    serf: SegmentSerf,
    milvus: MilvusLike,
    methods: Seq[BuiltMethod],
) {
  def method(name: String): BuiltMethod = methods.find(_.name == name).get
}

object MethodSuite {

  // Index parameters, scaled from the paper's (m = 16/64, EF = 100/400 at
  // n = 1M) to our n = 4096 — documented in DESIGN.md.
  val M = 16
  val EF = 100
  val MilvusParts = 10
  val SerfGrid = 4
  val VamanaBuckets = 10

  def build(ds: RfDataset): MethodSuite = {
    import BenchUtil.{allThreadsCpuAndWallSeconds, cpuSeconds}
    val vs = ds.vs

    // Builds are timed in CPU seconds (the host steals vCPU in bursts; see
    // BenchUtil.cpuSeconds). The iRangeGraph build runs on a thread pool,
    // so its CPU time is summed over all threads; its wall time is kept too.
    val (irg, tIrg, tIrgWall) = allThreadsCpuAndWallSeconds(IRangeGraph.build(vs, M, EF))

    val (hnswAll, tHnsw) = cpuSeconds(Hnsw.buildAll(vs, M, EF))
    val (milvus, tMilvus) = cpuSeconds(MilvusLike.build(vs, MilvusParts, M, EF))
    val (superPost, tSuper) = cpuSeconds(SuperPostFiltering.build(vs, M, EF))
    val (serf, tSerf) = cpuSeconds(SegmentSerf.build(vs, SerfGrid, M, EF))
    val (fVamana, tFv) = cpuSeconds(FilteredVamana.build(vs, VamanaBuckets, M, EF))
    val (sVamana, tSv) = cpuSeconds(StitchedVamana.build(vs, VamanaBuckets, M, EF))

    val methods = Seq(
      BuiltMethod("iRangeGraph", irg.sizeBytes, tIrg, usesBeam = true,
        (q, l, r, k, beam) => irg.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("2DSegmentGraph", serf.sizeBytes, tSerf, usesBeam = true,
        (q, l, r, k, beam) => serf.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("FilteredVamana", fVamana.sizeBytes, tFv, usesBeam = true,
        (q, l, r, k, beam) => fVamana.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("StitchedVamana", sVamana.sizeBytes, tSv, usesBeam = true,
        (q, l, r, k, beam) => sVamana.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("Milvus", milvus.sizeBytes, tMilvus, usesBeam = true,
        (q, l, r, k, beam) => milvus.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("SuperPostfiltering", superPost.sizeBytes, tSuper, usesBeam = true,
        (q, l, r, k, beam) => superPost.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("Pre-filtering", 0L, 0.0, usesBeam = false,
        (q, l, r, k, _) => PreFiltering.search(vs, q, l, r, k).map(_.id)),
    )
    MethodSuite(ds, irg, hnswAll, tHnsw, tIrgWall, serf, milvus, methods)
  }
}
