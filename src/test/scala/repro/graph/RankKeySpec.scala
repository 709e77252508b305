package repro.graph

import java.lang.Float.{floatToRawIntBits, intBitsToFloat}
import org.scalacheck.rng.Seed
import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

/** [[RankKey]] over arbitrary floats (±0.0, ±Inf, NaNs, subnormals,
  * negatives) and ids in [0, Int.MaxValue]: signed key order is
  * [[BruteForce.candidateOrdering]], the id round-trips, and the distance's
  * bits round-trip for every non-NaN distance.
  */
class RankKeySpec extends AnyFunSuite {

  private val special = Seq(0.0f, -0.0f, Float.PositiveInfinity, Float.NegativeInfinity,
    Float.NaN, intBitsToFloat(0xffc00001), Float.MinPositiveValue, -Float.MinPositiveValue,
    java.lang.Float.MIN_NORMAL, Float.MaxValue, Float.MinValue, 1.0f, -1.0f)

  private val dists: Gen[Float] = Gen.frequency(
    4 -> Gen.oneOf(special),
    3 -> Gen.choose(Int.MinValue, Int.MaxValue).map(intBitsToFloat), // any bits, NaN payloads too
    2 -> Gen.choose(1, 0x007fffff).map(b => intBitsToFloat(b | (if (b % 2 == 0) 0x80000000 else 0))), // ±subnormal
    2 -> Gen.choose(-4, 4).map(_ * 0.25f)) // small values, so equal distances are common

  private val ids: Gen[Int] = Gen.frequency(
    3 -> Gen.choose(0, Int.MaxValue),
    2 -> Gen.oneOf(0, 1, 2, 1 << 30, Int.MaxValue - 1, Int.MaxValue),
    2 -> Gen.choose(0, 5))

  private def check(p: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(20000).withInitialSeed(Seed(53L))
    val result = Test.check(params, p)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("key order is candidateOrdering") {
    check(Prop.forAllNoShrink(dists, ids, dists, ids) { (d1, i1, d2, i2) =>
      val want = Integer.signum(BruteForce.candidateOrdering.compare(Candidate(i1, d1), Candidate(i2, d2)))
      java.lang.Long.compare(RankKey(d1, i1), RankKey(d2, i2)).sign == want
    })
  }

  test("the id round-trips, with the flag bit clear or set") {
    check(Prop.forAllNoShrink(dists, ids) { (d, i) =>
      val key = RankKey(d, i)
      (key & 1L) == 0L && RankKey.id(key) == i && RankKey.id(key | 1L) == i
    })
  }

  test("the distance's bits round-trip unless it is NaN") {
    check(Prop.forAllNoShrink(dists, ids) { (d, i) =>
      val back = RankKey.dist(RankKey(d, i) | (i & 1))
      if (d.isNaN) back.isNaN else floatToRawIntBits(back) == floatToRawIntBits(d)
    })
  }
}
