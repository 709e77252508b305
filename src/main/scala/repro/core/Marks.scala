package repro.core

/** An epoch-stamped set of ids below n, for one thread: `mark(v) == epoch`
  * means v is in the set. [[next]] empties it by bumping the epoch; the
  * array is zero-filled only when the epoch wraps, and grows to n.
  */
private[core] final class Marks {
  var mark = new Array[Int](0)
  var epoch = 0

  def next(n: Int): Unit = {
    if (mark.length < n) mark = new Array[Int](n)
    if (epoch == Int.MaxValue) { java.util.Arrays.fill(mark, 0); epoch = 0 }
    epoch += 1
  }
}
