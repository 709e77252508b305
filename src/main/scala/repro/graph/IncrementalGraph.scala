package repro.graph

import scala.collection.mutable

/** Single-layer incremental α-RNG graph.
  *
  * Two consumers:
  *
  *  - **Vamana-style builds** (FilteredVamana / StitchedVamana baselines):
  *    insert in a caller-chosen order with α > 1, no lifespans.
  *  - **SeRF-style segment graph** (the "2DSegmentGraph" baseline): insert in
  *    ascending attribute order with `recordLifespans = true`. Every directed
  *    edge records the insertion step at which it appeared (`birth`) and was
  *    pruned away (`death`, or ∞ if still alive). Replaying the graph "as of
  *    step t" reconstructs exactly the graph the incremental build had after
  *    inserting the first t points — SeRF's key observation that one
  *    annotated graph compresses all n half-bounded range indexes.
  *
  * Insertion step counts inserted points, so after inserting points with
  * ranks [0, t) the current step is t and an edge is alive at t iff
  * `birth <= t < death`.
  */
final class IncrementalGraph(
    val vs: VecStore,
    val m: Int,
    val efConstruction: Int,
    val alpha: Float,
    val recordLifespans: Boolean,
) {
  /** Per-node parallel edge logs. With lifespans, pruned edges are retained
    * (dead interval); without, lists hold only the live adjacency.
    */
  private val nbr = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
  private val birth = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
  private val death = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
  private val insertedOrder = mutable.ArrayBuffer.empty[Int]
  private var entryPoint: Int = -1

  def step: Int = insertedOrder.length
  def inserted: Seq[Int] = insertedOrder.toSeq
  def entry: Int = entryPoint

  private def liveNeighbors(u: Int): Array[Int] = {
    val ids = nbr(u)
    if (!recordLifespans) ids.toArray
    else {
      val de = death(u)
      val out = mutable.ArrayBuffer.empty[Int]
      var i = 0
      while (i < ids.length) { if (de(i) == Int.MaxValue) out += ids(i); i += 1 }
      out.toArray
    }
  }

  private def addEdge(u: Int, v: Int): Unit = {
    nbr.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
    if (recordLifespans) {
      birth.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += step
      death.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += Int.MaxValue
    }
  }

  /** Replace u's live adjacency with `kept`; dead edges keep their interval. */
  private def setLive(u: Int, kept: Array[Int]) : Unit = {
    if (!recordLifespans) {
      val b = nbr(u); b.clear(); kept.foreach(b += _)
    } else {
      val ids = nbr(u); val de = death(u)
      val keep = kept.toSet
      val stillLive = mutable.HashSet.empty[Int]
      var i = 0
      while (i < ids.length) {
        if (de(i) == Int.MaxValue) {
          if (!keep.contains(ids(i))) de(i) = step
          else stillLive += ids(i)
        }
        i += 1
      }
      kept.foreach { v => if (!stillLive.contains(v)) addEdge(u, v) }
    }
  }

  /** Insert one point; must not have been inserted before. */
  def insert(u: Int): Unit = {
    if (entryPoint < 0) {
      entryPoint = u
      nbr.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
      if (recordLifespans) {
        birth.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
        death.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
      }
      insertedOrder += u
      return
    }
    val q = vs.vector(u)
    val cands = BeamSearch.search(
      q, (i: Int) => vs.dist2(i, q), Seq(entryPoint), efConstruction, efConstruction,
      neighbors = (x: Int) => liveNeighbors(x),
    )
    val sel = RngPrune.prune(cands.filter(_.id != u), (a, b) => vs.dist2(a, b), m, alpha)
    insertedOrder += u
    nbr.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
    if (recordLifespans) {
      birth.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
      death.getOrElseUpdate(u, mutable.ArrayBuffer.empty)
    }
    sel.foreach(c => addEdge(u, c.id))
    // Reverse edges with overflow pruning.
    for (c <- sel) {
      addEdge(c.id, u)
      val live = liveNeighbors(c.id)
      if (live.length > m) {
        val scored = live.map(x => Candidate(x, vs.dist2(c.id, x)))
        val kept = RngPrune.prune(scored, (a, b) => vs.dist2(a, b), m, alpha)
        setLive(c.id, kept.map(_.id))
      }
    }
  }

  /** Adjacency of u as of insertion step t (lifespan graphs only). */
  def neighborsAsOf(u: Int, t: Int): Array[Int] = {
    require(recordLifespans, "neighborsAsOf needs lifespans")
    nbr.get(u) match {
      case None => Array.empty
      case Some(ids) =>
        val bi = birth(u); val de = death(u)
        val out = mutable.ArrayBuffer.empty[Int]
        var i = 0
        while (i < ids.length) {
          if (bi(i) <= t && t < de(i)) out += ids(i)
          i += 1
        }
        out.toArray
    }
  }

  /** Final (live) adjacency of u. */
  def neighbors(u: Int): Array[Int] = nbr.get(u).map(_ => liveNeighbors(u)).getOrElse(Array.empty)

  /** Search the final graph (Vamana-style use). Rejects a query of the
    * wrong dimension or with a NaN component, k <= 0 and ef < 1.
    */
  def search(q: Array[Float], entries: Seq[Int], k: Int, ef: Int,
             visit: Int => Boolean = _ => true,
             admit: Int => Boolean = BeamSearch.AdmitAll,
             stats: SearchStats = null): Array[Candidate] = {
    vs.checkQuery(q, k, ef)
    BeamSearch.search(q, (i: Int) => vs.dist2(i, q), entries, math.max(ef, k), k,
      neighbors = (x: Int) => liveNeighbors(x), visit = visit, admit = admit, stats = stats)
  }

  /** Search the graph as of insertion step t (segment-graph use); rejects
    * bad queries like [[search]].
    */
  def searchAsOf(q: Array[Float], entries: Seq[Int], k: Int, ef: Int, t: Int,
                 visit: Int => Boolean = _ => true,
                 admit: Int => Boolean = BeamSearch.AdmitAll,
                 stats: SearchStats = null): Array[Candidate] = {
    vs.checkQuery(q, k, ef)
    BeamSearch.search(q, (i: Int) => vs.dist2(i, q), entries, math.max(ef, k), k,
      neighbors = (x: Int) => neighborsAsOf(x, t), visit = visit, admit = admit, stats = stats)
  }

  /** Stored edge count (lifespan graphs keep dead edges — that IS the
    * compressed representation SeRF stores).
    */
  def storedEdges: Long = nbr.valuesIterator.map(_.length.toLong).sum

  /** Bytes: id (4) + with lifespans birth/death (4 + 4) per stored edge. */
  def sizeBytes: Long = storedEdges * (if (recordLifespans) 12L else 4L)
}

object IncrementalGraph {

  /** Build by inserting `order` into an empty graph. */
  def build(vs: VecStore, order: Seq[Int], m: Int, efConstruction: Int,
            alpha: Float = 1.0f, recordLifespans: Boolean = false): IncrementalGraph = {
    val g = new IncrementalGraph(vs, m, efConstruction, alpha, recordLifespans)
    order.foreach(g.insert)
    g
  }
}
