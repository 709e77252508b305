package repro.baselines

import repro.graph.{Candidate, Hnsw, SearchStats}

/** Post-filtering (Section 2.2): unrestricted graph-based ANN search on an
  * HNSW over the whole dataset; only in-range objects are admitted into the
  * result. Visits many out-of-range objects when the predicate is selective.
  */
object PostFiltering {

  def search(h: Hnsw, q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             stats: SearchStats = null): Array[Candidate] = {
    h.vs.checkQuery(q, L, R, k, beam)
    h.search(q, k, beam, admit = i => i >= L && i <= R, stats = stats)
  }
}

/** In-filtering (Section 2.2): the graph search traverses only in-range
  * nodes. Enters at an in-range node (the range midpoint) on the base layer
  * — the hierarchical descent would land out-of-range. With a fixed graph,
  * short ranges leave nodes with few or no in-range neighbors, so the
  * nearest neighbor can be unreachable.
  */
object InFiltering {

  def search(h: Hnsw, q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             stats: SearchStats = null): Array[Candidate] = {
    h.vs.checkQuery(q, L, R, k, beam)
    val entry = L + (R - L) / 2
    h.searchBase(q, Seq(entry), k, beam,
      visit = i => i >= L && i <= R,
      admit = i => i >= L && i <= R,
      stats = stats)
  }
}
