package repro.graph

/** A ranked candidate (dist, id) packed into one `Long` whose signed order
  * is exactly [[BruteForce.candidateOrdering]]: `java.lang.Float.compare`
  * on the distance (-0.0 before 0.0, NaN last), then the id.
  *
  * The high word is the distance's bits made sortable as a signed `Int`
  * (a negative float's magnitude bits are flipped), the low word is
  * `id << 1`, so ids range over [0, Int.MaxValue] and bit 0 is free for a
  * caller's flag (the beam marks expanded slots with it). Decoding gives
  * back the id, and the distance's bits for every non-NaN distance; a NaN
  * decodes as the canonical NaN.
  */
object RankKey {

  def apply(dist: Float, id: Int): Long = {
    val b = java.lang.Float.floatToIntBits(dist)
    ((b ^ ((b >> 31) & 0x7fffffff)).toLong << 32) | ((id << 1) & 0xffffffffL)
  }

  def id(key: Long): Int = key.toInt >>> 1

  def dist(key: Long): Float = {
    val s = (key >> 32).toInt
    java.lang.Float.intBitsToFloat(s ^ ((s >> 31) & 0x7fffffff))
  }
}
