package rfbench

import repro.graph.Candidate
import scala.collection.mutable
import scala.util.control.NonFatal

/** How the benchmark judges what the program returns: percentiles, recall
  * and per-query output checks. These are the benchmark's own rather than
  * the program's (`GroundTruth.recall`, `BenchUtil`), so a change to the
  * program cannot change how its results are scored.
  */
object Judge {

  /** Percentile ladder in parts per 100 000, so that 99.9 is exact. */
  val Ladder: Seq[Int] = Seq(50000, 90000, 99000, 99900, 99990, 99999)

  /** 1-based nearest rank of percentile `pp` (parts per 100 000) among `n` samples. */
  def rank(n: Int, pp: Int): Int =
    math.max(1, ((pp.toLong * n + 99999L) / 100000L).toInt)

  /** Samples that lie beyond percentile `pp`'s rank. */
  def beyond(n: Int, pp: Int): Int = n - rank(n, pp)

  /** Value at percentile `pp` of the ascending `sorted` samples. */
  def percentile(sorted: Array[Long], pp: Int): Long = {
    require(sorted.nonEmpty, "no samples")
    sorted(rank(sorted.length, pp) - 1)
  }

  /** The highest ladder percentile with at least 10 samples beyond it, as
    * (percentile in parts per 100 000, value); None below 11 samples.
    */
  def tail(sorted: Array[Long]): Option[(Int, Long)] =
    Ladder.filter(beyond(sorted.length, _) >= 10).lastOption.map(pp => (pp, percentile(sorted, pp)))

  /** Element-wise minimum of equally long arrays. */
  def minEach(xs: Seq[Array[Long]]): Array[Long] =
    xs.reduce((a, b) => Array.tabulate(a.length)(i => math.min(a(i), b(i))))

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** |G ∩ S| / |G| over distinct ids; 1 when the filter admits nothing. */
  def recall(gt: Array[Int], got: Array[Int]): Double =
    if (gt.isEmpty) 1.0
    else {
      val s = got.toSet
      gt.count(s.contains).toDouble / gt.length
    }

  /** Why `res` is not a valid answer to a top-`k` query whose filter is
    * `allowed`, or null when it is: at most k ids, none repeated, every id
    * passes the filter, sorted by (dist, id), each dist equal to `dist(id)`.
    */
  def problem(res: Array[Candidate], k: Int, allowed: Int => Boolean,
              dist: Int => Float): String = {
    if (res == null) return "null result"
    if (res.length > k) return s"${res.length} ids for k=$k"
    val seen = mutable.HashSet.empty[Int]
    var i = 0
    while (i < res.length) {
      val c = res(i)
      if (!seen.add(c.id)) return s"id ${c.id} repeated"
      if (!allowed(c.id)) return s"id ${c.id} fails the filter"
      if (c.dist != dist(c.id)) return s"id ${c.id} has dist ${c.dist} != ${dist(c.id)}"
      if (i > 0) {
        val p = res(i - 1)
        if (p.dist > c.dist || (p.dist == c.dist && p.id >= c.id))
          return s"not sorted by (dist, id) at position $i"
      }
      i += 1
    }
    null
  }

  /** Runs query `qid` once: times `search` alone, then records in `tally`
    * whether it threw or what `check` finds wrong with its answer. With a
    * tracer, the search becomes a `core.search` span under `parent`.
    * Returns the search's wall-clock nanoseconds.
    */
  def runOne(qid: Int, search: Int => Array[Candidate],
             check: (Int, Array[Candidate]) => String, tally: Tally,
             tracer: Tracer = null, parent: Int = -1): Long = {
    var res: Array[Candidate] = null
    var thrown: Throwable = null
    val t0 = System.nanoTime()
    try res = search(qid)
    catch { case NonFatal(e) => thrown = e }
    val t1 = System.nanoTime()
    if (tracer != null) tracer.record(Tracer.Search, t0, t1, parent, qid)
    tally.record(qid, if (thrown != null) s"threw $thrown" else check(qid, res))
    t1 - t0
  }
}

/** Attempted and failed query counts, with the first failure kept for the report. */
final class Tally {
  var attempted: Long = 0L
  var failed: Long = 0L
  var firstFailure: String = null

  /** Records one attempted query; `problem` is null when it succeeded. */
  def record(qid: Int, problem: String): Unit = {
    attempted += 1
    if (problem != null) {
      failed += 1
      if (firstFailure == null) firstFailure = s"query $qid: $problem"
    }
  }

  def add(o: Tally): Unit = {
    attempted += o.attempted
    failed += o.failed
    if (firstFailure == null) firstFailure = o.firstFailure
  }
}
