package repro.core

/** Reference for the differential test of [[EdgeSelection]]: Algorithm 1
  * over the padded layout, with the linear-scan dedup and the
  * intersection-length skip test, kept verbatim as it ran before the packed
  * layout replaced it.
  */
object PaddedEdgeSelection {

  /** Padded layout: `layers(lay)` is an n*m array, u's list at
    * `[u*m, (u+1)*m)` padded with -1. Materialize it once per index.
    */
  final class Padded(val n: Int, val m: Int, val layers: Array[Array[Int]])

  def padded(g: ElementalGraphs): Padded = new Padded(g.n, g.m, g.layers.toArray)

  def select(g: Padded, u: Int, L: Int, R: Int, out: Array[Int],
             skip: Boolean = true): Int = {
    val m = g.m
    var l = 0
    var r = g.n - 1
    var lay = 0
    var count = 0
    var done = false
    while (!done && count < m && l < r) {
      val cm = SegmentTree.mid(l, r)
      val lc = if (u <= cm) l else cm + 1
      val rc = if (u <= cm) cm else r
      if (skip && SegmentTree.intersectLen(lc, rc, L, R) == SegmentTree.intersectLen(l, r, L, R)) {
        // Same intersection: child's edges are equally robust — skip layer.
        l = lc; r = rc; lay += 1
      } else {
        count = appendInRange(g, lay, u, L, R, out, count)
        if (L <= l && r <= R) done = true
        else { l = lc; r = rc; lay += 1 }
      }
    }
    if (count < out.length) out(count) = -1
    count
  }

  private def appendInRange(g: Padded, lay: Int, u: Int, L: Int, R: Int,
                            out: Array[Int], count0: Int): Int = {
    val m = g.m
    val a = g.layers(lay)
    val base = u * m
    var count = count0
    var j = 0
    while (j < m && count < m && a(base + j) >= 0) {
      val v = a(base + j)
      if (v >= L && v <= R) {
        var dup = false
        var t = 0
        while (!dup && t < count) { if (out(t) == v) dup = true; t += 1 }
        if (!dup) { out(count) = v; count += 1 }
      }
      j += 1
    }
    count
  }
}
