package repro.graph

/** The RNG pruning rule (Definition 2.1) and its α-generalization
  * (DiskANN's RobustPrune; α = 1 is exactly RNG pruning).
  *
  * Given candidates for node u sorted by ascending distance to u, a kept
  * candidate s prunes a later candidate c iff
  * `α · δ(s, c) < δ(u, c)` — s is closer to c than u is (scaled by α) while
  * also being closer to u (guaranteed by the sort order).
  */
object RngPrune {

  /** Prune `candidates` (must be distinct ids, each with its distance to u)
    * down to at most `m` diversified neighbors. Returns kept candidates in
    * ascending (dist, id) order.
    *
    * Candidates are ranked as [[RankKey]]s in one primitive sort, and the
    * kept ones are compacted to the front of that array.
    *
    * `interDist(a, b)` supplies the distance between two candidates.
    */
  def prune(
      candidates: Array[Candidate],
      interDist: (Int, Int) => Float,
      m: Int,
      alpha: Float = 1.0f,
  ): Array[Candidate] = {
    val keys = new Array[Long](candidates.length)
    var i = 0
    while (i < keys.length) { keys(i) = RankKey(candidates(i).dist, candidates(i).id); i += 1 }
    java.util.Arrays.sort(keys)
    var kept = 0 // keys[0, kept) are the kept candidates
    i = 0
    while (i < keys.length && kept < m) {
      val key = keys(i)
      val id = RankKey.id(key)
      val d = RankKey.dist(key)
      var j = 0
      while (j < kept && !(alpha * interDist(RankKey.id(keys(j)), id) < d)) j += 1
      if (j == kept) { keys(kept) = key; kept += 1 }
      i += 1
    }
    Array.tabulate(kept)(j => Candidate(RankKey.id(keys(j)), RankKey.dist(keys(j))))
  }

  /** Exact directed RNG over ids [lo, hi] (inclusive), O(s³) — reference
    * implementation for validating approximate builders on tiny segments.
    * Edge (u, v) is kept iff no u' in the segment has
    * δ(u, u') < δ(u, v) and δ(v, u') < δ(u, v).
    * Ties broken conservatively (strict inequality), matching `prune` at
    * α = 1 with a full candidate set and m = ∞.
    */
  def exactRng(vs: VecStore, lo: Int, hi: Int): Map[Int, Array[Int]] = {
    val ids = (lo to hi).toArray
    ids.map { u =>
      val kept = ids.filter(_ != u).filter { v =>
        val duv = vs.dist2(u, v)
        !ids.exists(w => w != u && w != v &&
          vs.dist2(u, w) < duv && vs.dist2(v, w) < duv)
      }
      u -> kept.map(v => Candidate(v, vs.dist2(u, v)))
        .sorted(BruteForce.candidateOrdering).map(_.id)
    }.toMap
  }
}
