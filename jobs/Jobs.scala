package repro.jobs

import repro.bench.{BenchContext, Tables}

/** spark-submit entrypoints, one per reproduced table/figure. Each forces
  * the shared [[BenchContext]] SparkSession, runs the corresponding harness
  * and prints the table; scale is controlled by REPRO_BENCH_N /
  * REPRO_BENCH_Q (defaults: n = 4096, 200 queries).
  *
  * Example:
  * {{{
  * spark-submit --class repro.jobs.Table2Job target/scala-2.13/repro_2.13-*.jar
  * }}}
  */
object Table1Job {
  def main(args: Array[String]): Unit = { println(Tables.table1()); BenchContext.spark.stop() }
}

object Table2Job {
  def main(args: Array[String]): Unit = { println(Tables.table2().text); BenchContext.spark.stop() }
}

object Table3Job {
  def main(args: Array[String]): Unit = { println(Tables.table3().text); BenchContext.spark.stop() }
}

object Fig2Job {
  /** Optional args: dataset names to restrict to (default: all five). */
  def main(args: Array[String]): Unit = {
    val names = if (args.nonEmpty) args.toSeq else BenchContext.datasets.map(_.name)
    println(Tables.fig2(names).text)
    BenchContext.spark.stop()
  }
}

object Fig3Job {
  def main(args: Array[String]): Unit = {
    val names = if (args.nonEmpty) args.toSeq else BenchContext.datasets.map(_.name)
    println(Tables.fig3(names).text)
    BenchContext.spark.stop()
  }
}

object Fig4Job {
  def main(args: Array[String]): Unit = {
    val names = if (args.nonEmpty) args.toSeq else BenchContext.datasets.map(_.name)
    println(Tables.fig4(names).text)
    BenchContext.spark.stop()
  }
}

object Fig5Job {
  def main(args: Array[String]): Unit = {
    val names = if (args.nonEmpty) args.toSeq else Seq("ytrgb-lite", "ytaudio-lite")
    println(Tables.fig5(names).text)
    BenchContext.spark.stop()
  }
}

/** Runs everything in order — the full evaluation in one submit. */
object AllJob {
  def main(args: Array[String]): Unit = {
    println(Tables.table1())
    println(Tables.table2().text)
    println(Tables.table3().text)
    println(Tables.fig2(BenchContext.datasets.map(_.name)).text)
    println(Tables.fig3(BenchContext.datasets.map(_.name)).text)
    println(Tables.fig4(BenchContext.datasets.map(_.name)).text)
    println(Tables.fig5().text)
    BenchContext.spark.stop()
  }
}
