package repro.graph

import scala.collection.mutable

/** Reference RNG prune for differential tests: the boxed `RngPrune.prune`
  * (a `Candidate` sort and an `ArrayBuffer` of kept candidates), kept
  * verbatim apart from its name. [[RngPrune.prune]] must keep the same
  * candidates in the same order, with the same float bits.
  */
object BoxedRngPrune {

  def prune(
      candidates: Array[Candidate],
      interDist: (Int, Int) => Float,
      m: Int,
      alpha: Float = 1.0f,
  ): Array[Candidate] = {
    val sorted = candidates.sorted(BruteForce.candidateOrdering)
    val kept = mutable.ArrayBuffer.empty[Candidate]
    var i = 0
    while (i < sorted.length && kept.size < m) {
      val c = sorted(i)
      var pruned = false
      var j = 0
      while (!pruned && j < kept.size) {
        if (alpha * interDist(kept(j).id, c.id) < c.dist) pruned = true
        j += 1
      }
      if (!pruned) kept += c
      i += 1
    }
    kept.toArray
  }
}
