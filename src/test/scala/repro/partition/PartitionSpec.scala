package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PartitionSpec extends AnyFunSuite {

  private val cat = FileCatalog(
    rows = Vector(10L, 20L, 30L, 40L, 50L),
    bytes = Vector(100L, 200L, 300L, 400L, 500L))

  private def randPart(rng: Random, id: Int): Part = {
    val files = (0 to rng.nextInt(4)).map(_ => rng.nextInt(5)).toSet
    Part.initial(id, files, rng.nextDouble() * 100)
  }

  test("span sums member file rows and bytes") {
    val p = Part.initial(0, Seq(0, 2), 5)
    assert(p.spanRows(cat) == 40L)
    assert(p.spanBytes(cat) == 400L)
  }

  test("overlap is the span of the file intersection") {
    val a = Part.initial(0, Seq(0, 1, 2), 1)
    val b = Part.initial(1, Seq(2, 3), 1)
    assert(a.overlapRows(b, cat) == 30L)
  }

  test("Ov(Pi,Pj) = Sp(Pi) + Sp(Pj) - Sp(Pi u Pj) (paper identity, 200 random pairs)") {
    val rng = new Random(12)
    for (_ <- 1 to 200) {
      val a = randPart(rng, 0); val b = randPart(rng, 1)
      val union = a.merge(b, 99)
      assert(a.overlapRows(b, cat) ==
        a.spanRows(cat) + b.spanRows(cat) - union.spanRows(cat))
    }
  }

  test("overlap is symmetric (200 random pairs)") {
    val rng = new Random(13)
    for (_ <- 1 to 200) {
      val a = randPart(rng, 0); val b = randPart(rng, 1)
      assert(a.overlapRows(b, cat) == b.overlapRows(a, cat))
    }
  }

  test("merge span is subadditive: Sp(Pi u Pj) <= Sp(Pi) + Sp(Pj) (200 random pairs)") {
    val rng = new Random(14)
    for (_ <- 1 to 200) {
      val a = randPart(rng, 0); val b = randPart(rng, 1)
      assert(a.merge(b, 99).spanRows(cat) <= a.spanRows(cat) + b.spanRows(cat))
    }
  }

  test("merge sums access frequencies and unions members") {
    val a = Part.initial(0, Seq(0), 3)
    val b = Part.initial(1, Seq(1), 4)
    val m = a.merge(b, 7)
    assert(m.rho == 7.0 && m.members == Set(0, 1) && m.id == 7)
  }

  test("merge of disjoint partitions has additive span") {
    val a = Part.initial(0, Seq(0, 1), 1)
    val b = Part.initial(1, Seq(3, 4), 1)
    assert(a.merge(b, 2).spanRows(cat) == a.spanRows(cat) + b.spanRows(cat))
  }

  test("cost C(M) = Sp(M) * rho(M)") {
    val p = Part.initial(0, Seq(1, 2), 4)
    assert(p.cost(cat) == 50.0 * 4)
  }

  test("totalSpaceRows counts duplicated content per merge (eq. (2) objective)") {
    val a = Part.initial(0, Seq(0, 1), 1)
    val b = Part.initial(1, Seq(1, 2), 1)
    assert(Part.totalSpaceRows(Seq(a, b), cat) == 30L + 50L)
  }

  test("duplication is 0 for disjoint partitions and grows with overlap") {
    val a = Part.initial(0, Seq(0), 1)
    val b = Part.initial(1, Seq(1), 1)
    assert(Part.duplication(Seq(a, b), cat) == 0.0)
    val c = Part.initial(2, Seq(0, 1), 1)
    val dup = Part.duplication(Seq(a, c), cat)
    assert(dup > 0.0 && dup < 1.0)
  }

  test("accessCompatible: ratio rule") {
    val a = Part.initial(0, Seq(0), 10)
    val b = Part.initial(1, Seq(1), 25)
    assert(Part.accessCompatible(a, b, rhoC = 3.0, rhoCAbs = 0.0))
    assert(!Part.accessCompatible(a, b, rhoC = 2.0, rhoCAbs = 0.0))
  }

  test("accessCompatible: absolute-difference rule rescues zero-frequency pairs") {
    val a = Part.initial(0, Seq(0), 0)
    val b = Part.initial(1, Seq(1), 3)
    assert(!Part.accessCompatible(a, b, rhoC = 100.0, rhoCAbs = 0.0)) // ratio undefined at 0
    assert(Part.accessCompatible(a, b, rhoC = 100.0, rhoCAbs = 3.0))
  }

  test("catalog validates shape") {
    assertThrows[IllegalArgumentException] {
      FileCatalog(Vector(1L), Vector(1L, 2L))
    }
  }

  test("catalog rejects a negative row count and names the file") {
    val e = intercept[IllegalArgumentException](FileCatalog(Vector(1L, 2L, -3L), Vector(1L, 2L, 3L)))
    assert(e.getMessage.contains("file 2") && e.getMessage.contains("-3"), e.getMessage)
  }

  test("catalog rejects a negative byte count and names the file") {
    val e = intercept[IllegalArgumentException](FileCatalog(Vector(1L, 2L), Vector(-1L, 2L)))
    assert(e.getMessage.contains("file 0") && e.getMessage.contains("-1"), e.getMessage)
  }

  test("initial partition is its own sole member") {
    val p = Part.initial(5, Seq(0, 1), 2)
    assert(p.members == Set(5))
  }
}
