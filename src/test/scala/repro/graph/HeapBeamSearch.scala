package repro.graph

import scala.collection.mutable

/** Reference beam search for differential tests: the original heap-based
  * kernel — three boxed `PriorityQueue`s, a `HashSet` visited set and a
  * tuple `(dist, id)` ordering — kept verbatim apart from its name and a
  * local copy of the tuple ordering, so the reference does not move when
  * `BruteForce.candidateOrdering` does. [[BeamSearch]] must return the same
  * candidates (ids and float bits) and the same [[SearchStats]] counters.
  */
object HeapBeamSearch {

  private val tupleOrdering: Ordering[Candidate] =
    Ordering.by((c: Candidate) => (c.dist, c.id))

  def search(
      q: Array[Float],
      dist: Int => Float,
      entries: Seq[Int],
      beam: Int,
      k: Int,
      neighbors: Int => Array[Int],
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = _ => true,
      stats: SearchStats = null,
  ): Array[Candidate] = {
    val ord = tupleOrdering
    // Min-heap of unexpanded candidates.
    val frontier = new mutable.PriorityQueue[Candidate]()(ord.reverse)
    // Max-heap of the best `beam` visited nodes.
    val beamHeap = new mutable.PriorityQueue[Candidate]()(ord)
    // Admitted nodes, accumulated; pruned to top-k at the end.
    val admitted = new mutable.PriorityQueue[Candidate]()(ord)
    val visited = mutable.HashSet.empty[Int]

    def offer(id: Int): Unit = {
      if (visited.add(id)) {
        val d = dist(id)
        if (stats != null) stats.distComputations += 1
        val c = Candidate(id, d)
        if (beamHeap.size < beam || ord.lt(c, beamHeap.head)) {
          frontier.enqueue(c)
          beamHeap.enqueue(c)
          if (beamHeap.size > beam) beamHeap.dequeue()
        }
        if (admit(id)) {
          admitted.enqueue(c)
          if (admitted.size > math.max(k, beam)) admitted.dequeue()
        }
      }
    }

    entries.foreach { e => if (visit(e)) offer(e) }

    var done = false
    while (!done && frontier.nonEmpty) {
      val cur = frontier.dequeue()
      // Stop when the best unexpanded node can no longer improve the beam.
      if (beamHeap.size >= beam && ord.gt(cur, beamHeap.head)) done = true
      else {
        if (stats != null) stats.nodesExpanded += 1
        val nbrs = neighbors(cur.id)
        var j = 0
        while (j < nbrs.length && nbrs(j) >= 0) {
          val v = nbrs(j)
          if (stats != null) stats.edgesScanned += 1
          if (!visited.contains(v) && visit(v)) offer(v)
          j += 1
        }
      }
    }
    admitted.dequeueAll.toArray.reverse.take(k)
  }
}
