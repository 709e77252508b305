package rfbench

import repro.graph.{Candidate, VecStore}

/** The benchmark's own tests: its percentile helper, recall and failure
  * counting. Run with `python3 rfbench/run.py --self-test`; exits nonzero
  * on the first failed check.
  */
object SelfTest {
  private var checks = 0

  private def check(cond: Boolean, what: String): Unit = {
    checks += 1
    if (!cond) {
      System.err.println(s"FAILED: $what")
      sys.exit(1)
    }
  }

  def main(args: Array[String]): Unit = {
    percentiles()
    recall()
    outputChecks()
    failureCounting()
    println(s"rfbench self-test: $checks checks passed")
  }

  private def percentiles(): Unit = {
    val hundred = Array.tabulate(100)(i => (i + 1).toLong)
    check(Judge.percentile(hundred, 50000) == 50, "p50 of 1..100 is 50")
    check(Judge.percentile(hundred, 99000) == 99, "p99 of 1..100 is 99")
    check(Judge.percentile(Array(7L), 99999) == 7, "any percentile of one sample is that sample")
    check(Judge.beyond(100, 90000) == 10, "10 of 100 samples lie beyond p90")
    // p90 has exactly 10 beyond at n = 100; p99 has only 1.
    check(Judge.tail(hundred).contains((90000, 90L)), "tail of 100 samples is p90")
    val thousand = Array.tabulate(1000)(i => i.toLong)
    check(Judge.tail(thousand).contains((99000, 989L)), "tail of 1000 samples is p99")
    check(Judge.tail(Array.tabulate(10000)(_.toLong)).map(_._1).contains(99900), "tail of 10^4 is p99.9")
    check(Judge.tail(Array.tabulate(10)(_.toLong)).isEmpty, "10 samples support no percentile")
    check(Judge.tail(Array.tabulate(20)(_.toLong)).contains((50000, 9L)), "20 samples support p50 only")
    check(Judge.median(Seq(3.0, 1.0, 2.0)) == 2.0, "odd median")
    check(Judge.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5, "even median")
  }

  private def recall(): Unit = {
    check(Judge.recall(Array(1, 2, 3, 4), Array(4, 3, 9, 1)) == 0.75, "3 of 4 found")
    check(Judge.recall(Array.empty, Array(5)) == 1.0, "empty ground truth has recall 1")
    check(Judge.recall(Array(1, 2), Array.empty) == 0.0, "empty answer has recall 0")
    check(Judge.recall(Array(1, 2), Array(1, 1, 1)) == 0.5, "a repeated id counts once")
  }

  // Vectors 0..5 on a line at x = id; the query sits at x = 2.
  private val vs = new VecStore(1, 6, Array.tabulate(6)(_.toFloat))
  private val q = Array(2.0f)
  private def dist(id: Int): Float = vs.dist2(id, q)
  private def c(id: Int): Candidate = Candidate(id, dist(id))
  private val inRange = (id: Int) => id >= 1 && id <= 4

  private def outputChecks(): Unit = {
    def ok(res: Array[Candidate]): Boolean = Judge.problem(res, 3, inRange, dist) == null
    check(ok(Array(c(2), c(1), c(3))), "valid answer passes")
    check(ok(Array.empty), "empty answer passes the output checks")
    check(!ok(null), "null answer fails")
    check(!ok(Array(c(2), c(1), c(3), c(4))), "more than k ids fails")
    check(!ok(Array(c(2), c(2))), "repeated id fails")
    check(!ok(Array(c(2), c(0))), "id outside [L, R] fails")
    check(!ok(Array(c(2), c(5))), "id outside [L, R] above fails")
    check(!ok(Array(c(1), c(2))), "unsorted by dist fails")
    check(!ok(Array(c(3), c(1))), "equal dist out of id order fails")
    check(!ok(Array(Candidate(2, 0.5f))), "wrong dist fails")
  }

  private def failureCounting(): Unit = {
    val answers: Int => Array[Candidate] = {
      case 0 => Array(c(2), c(1))
      case 1 => throw new IllegalStateException("boom")
      case 2 => Array(c(2), c(2))
      case _ => Array(c(3))
    }
    val check3 = (_: Int, res: Array[Candidate]) => Judge.problem(res, 3, inRange, dist)
    val t = new Tally
    (0 until 4).foreach(qid => Judge.runOne(qid, answers, check3, t))
    check(t.attempted == 4, "every query counts as attempted")
    check(t.failed == 2, "a throw and a bad answer count as failures")
    check(t.firstFailure.startsWith("query 1: threw"), "first failure is kept")
    val u = new Tally
    u.record(7, null)
    u.record(8, "bad")
    t.add(u)
    check(t.attempted == 6 && t.failed == 3, "tallies add")
    check(t.firstFailure.startsWith("query 1"), "merging keeps the earlier first failure")
    val tracer = new Tracer(1)
    val ns = Judge.runOne(0, answers, check3, new Tally, tracer, parent = -1)
    check(ns >= 0 && tracer.size == 1, "a traced query records one span")
  }
}
