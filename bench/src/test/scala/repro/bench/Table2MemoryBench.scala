package repro.bench

/** Reproduces Table 2 (memory footprint). Prints exact byte accounting per
  * method per dataset and asserts the paper's qualitative ordering:
  * SuperPostfiltering > iRangeGraph; Pre-filtering == raw vectors;
  * Milvus close to a single whole-set index. Also prints iRangeGraph's
  * resident adjacency bytes next to its paper-style edge bytes.
  */
class Table2MemoryBench extends repro.SparkSpec {

  test("Table 2 — memory footprint") {
    val res = Tables.table2()
    println(res.text)
    val byMethod = res.rows.map(r => r.method -> r.bytesPerDataset).toMap
    val raw = byMethod("Raw Vectors")
    val irg = byMethod("iRangeGraph")
    val superPost = byMethod("SuperPostfiltering")
    val pre = byMethod("Pre-filtering")
    val milvus = byMethod("Milvus")

    // Pre-filtering stores no index: footprint == raw vectors.
    assert(pre == raw)
    // Every graph index adds memory on top of the vectors.
    for (mn <- Tables.methodNames if mn != "Pre-filtering")
      res.datasets.indices.foreach(i => assert(byMethod(mn)(i) > raw(i), s"$mn on ${res.datasets(i)}"))
    // SuperPostfiltering's overlapping windows cost more than iRangeGraph's
    // one-appearance-per-layer elemental graphs (paper's Table 2 ordering).
    res.datasets.indices.foreach { i =>
      assert(superPost(i) > irg(i),
        s"SuperPost ${superPost(i)} <= iRangeGraph ${irg(i)} on ${res.datasets(i)}")
    }
    // Milvus (10 disjoint partition HNSWs) is leaner than iRangeGraph's
    // log-n layers.
    res.datasets.indices.foreach(i => assert(milvus(i) < irg(i)))
    // The packed adjacency holds the edges plus one offset per (rank, layer)
    // and stays well below the padded layout.
    val Seq(edges, packed, padded) = res.irgAdjacency.map(_.bytesPerDataset)
    res.datasets.indices.foreach { i =>
      assert(edges(i) < packed(i) && 2 * packed(i) < padded(i), res.datasets(i))
    }
  }
}
