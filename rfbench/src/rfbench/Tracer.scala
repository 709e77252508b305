package rfbench

import java.io.{BufferedWriter, FileWriter}

/** Spans held in memory in primitive arrays, one tracer per thread so that
  * recording takes no lock. A span has a name, start and end (System.nanoTime),
  * the id of the span that caused it (-1 for none) and a query id (-1 for
  * none); span ids are indices into their tracer.
  */
final class Tracer(capacity: Int = 1 << 16) {
  private var names = new Array[Int](capacity)
  private var starts = new Array[Long](capacity)
  private var ends = new Array[Long](capacity)
  private var parents = new Array[Int](capacity)
  private var qids = new Array[Int](capacity)
  private var size0 = 0

  def size: Int = size0

  def record(name: Int, start: Long, end: Long, parent: Int, qid: Int): Int = {
    if (size0 == names.length) grow()
    names(size0) = name; starts(size0) = start; ends(size0) = end
    parents(size0) = parent; qids(size0) = qid
    size0 += 1
    size0 - 1
  }

  /** Opens a span now; its end stays -1 until [[close]]. */
  def open(name: Int, parent: Int = -1, qid: Int = -1): Int =
    record(name, System.nanoTime(), -1L, parent, qid)

  def close(id: Int): Unit = ends(id) = System.nanoTime()

  def durationNs(id: Int): Long = ends(id) - starts(id)

  private def grow(): Unit = {
    val c = names.length * 2
    names = java.util.Arrays.copyOf(names, c)
    starts = java.util.Arrays.copyOf(starts, c)
    ends = java.util.Arrays.copyOf(ends, c)
    parents = java.util.Arrays.copyOf(parents, c)
    qids = java.util.Arrays.copyOf(qids, c)
  }

  private def writeTo(w: BufferedWriter, offset: Int, rootParent: Int): Unit = {
    var i = 0
    while (i < size0) {
      val p = if (parents(i) >= 0) parents(i) + offset else rootParent
      w.write(s"""{"id":${i + offset},"name":"${Tracer.Names(names(i))}","start_ns":${starts(i)},""" +
        s""""end_ns":${ends(i)},"parent":$p,"qid":${qids(i)}}""")
      w.newLine()
      i += 1
    }
  }
}

object Tracer {
  val Names: Array[String] = Array(
    "run", "data.generate", "data.gt", "data.gt_spot_check", "core.build",
    "core.build.layer", "core.build.segment", "core.search_loop", "core.search",
    "graph.dist", "core.select")
  val Run = 0
  val Generate = 1
  val GroundTruth = 2
  val SpotCheck = 3
  val Build = 4
  val BuildLayer = 5
  val BuildSegment = 6
  val SearchLoop = 7
  val Search = 8
  val Dist = 9
  val Select = 10

  /** Writes `main`'s spans, then each client tracer's with its ids shifted
    * past those already written and its root spans parented to the given
    * span of `main`. One JSON object per line.
    */
  def writeAll(path: String, main: Tracer, clients: Seq[(Tracer, Int)]): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      main.writeTo(w, 0, -1)
      var offset = main.size
      clients.foreach { case (t, parent) =>
        t.writeTo(w, offset, parent)
        offset += t.size
      }
    } finally w.close()
  }
}
