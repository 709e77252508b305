package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

/** The per-thread mark pool behind `EdgeSelection.select`'s dedup: an
  * epoch wrap and growth to a larger index, checked against
  * [[PaddedEdgeSelection]].
  */
class EdgeSelectionMarksSpec extends AnyFunSuite {

  private val small = ElementalGraphBuilder.build(TestData.clusteredVs(40, 6, clusters = 3, seed = 91), 6, 30)
  private val large = ElementalGraphBuilder.build(TestData.clusteredVs(600, 6, clusters = 5, seed = 92), 6, 30)

  /** Compares `select` with the padded reference on random (u, L, R). */
  private def agrees(g: ElementalGraphs, seed: Long, trials: Int = 300): Unit = {
    val ref = PaddedEdgeSelection.padded(g)
    val rnd = new java.util.Random(seed)
    for (_ <- 0 until trials) {
      val a = rnd.nextInt(g.n); val b = rnd.nextInt(g.n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      val u = rnd.nextInt(g.n)
      val (got, want) = (new Array[Int](g.m + 1), new Array[Int](g.m + 1))
      val c = EdgeSelection.select(g, u, l, r, got)
      assert(c == PaddedEdgeSelection.select(ref, u, l, r, want), s"u=$u [$l,$r]")
      assert(got.take(c + 1).toSeq == want.take(c + 1).toSeq, s"u=$u [$l,$r]")
    }
  }

  /** This thread's pooled mark array and epoch, by reflection. */
  private def marks(): (AnyRef, java.lang.reflect.Field, java.lang.reflect.Field) = {
    val poolField = EdgeSelection.getClass.getDeclaredField("pool")
    poolField.setAccessible(true)
    val m = poolField.get(EdgeSelection).asInstanceOf[ThreadLocal[AnyRef]].get
    val mark = m.getClass.getDeclaredField("mark")
    val epoch = m.getClass.getDeclaredField("epoch")
    mark.setAccessible(true)
    epoch.setAccessible(true)
    (m, mark, epoch)
  }

  test("the marks stay correct across an epoch wrap") {
    agrees(large, 93, trials = 1)
    // Stamp every id with epoch 1 and jump to the last epoch: past the wrap,
    // stale stamps of 1 would hide every neighbor unless the marks are cleared.
    val (m, mark, epoch) = marks()
    java.util.Arrays.fill(mark.get(m).asInstanceOf[Array[Int]], 1)
    epoch.setInt(m, Int.MaxValue - 1)
    agrees(large, 94)
    assert(epoch.getInt(m) == 300 - 1)
  }

  test("the marks grow when one thread moves to a larger index") {
    var failure: Throwable = null
    var lengths = Seq.empty[Int]
    val t = new Thread(() => {
      try {
        agrees(small, 95)
        val (m, mark, _) = marks()
        lengths :+= mark.get(m).asInstanceOf[Array[Int]].length
        agrees(large, 96)
        lengths :+= mark.get(m).asInstanceOf[Array[Int]].length
        agrees(small, 97)
      } catch { case e: Throwable => failure = e }
    })
    t.start()
    t.join()
    if (failure != null) throw failure
    assert(lengths == Seq(40, 600))
  }
}
