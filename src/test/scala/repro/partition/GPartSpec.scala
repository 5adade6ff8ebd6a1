package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GPartSpec extends AnyFunSuite {

  private def mkCat(n: Int, rowsEach: Long = 10L): FileCatalog =
    FileCatalog(Vector.fill(n)(rowsEach), Vector.fill(n)(rowsEach * 10))

  private val looseCfg = GPartConfig(rhoC = 1e9, rhoCAbs = 1e9, sThreshRows = Long.MaxValue)

  test("fractional overlap: identical partitions -> 1, disjoint -> 0") {
    val cat = mkCat(4)
    val a = Part.initial(0, Seq(0, 1), 1)
    val b = Part.initial(1, Seq(0, 1), 1)
    val c = Part.initial(2, Seq(2, 3), 1)
    assert(GPartReference.fractionalOverlap(a, b, cat) == 1.0)
    assert(GPartReference.fractionalOverlap(a, c, cat) == 0.0)
  }

  test("every initial partition is covered by exactly one output partition") {
    val rng = new Random(20)
    val cat = mkCat(12)
    for (trial <- 1 to 30) {
      val parts = (0 until 8).map { i =>
        Part.initial(i, (0 to rng.nextInt(4)).map(_ => rng.nextInt(12)).toSet, rng.nextInt(10) + 1)
      }
      val out = GPart.merge(parts, cat, looseCfg)
      val covered = out.flatMap(_.members)
      assert(covered.sorted == (0 until 8).toVector, s"trial $trial")
    }
  }

  test("disjoint partitions are never merged") {
    val cat = mkCat(6)
    val parts = (0 until 3).map(i => Part.initial(i, Seq(2 * i, 2 * i + 1), 1))
    val out = GPart.merge(parts, cat, looseCfg)
    assert(out.length == 3)
    assert(out.map(_.members).toSet == Set(Set(0), Set(1), Set(2)))
  }

  test("fully overlapping partitions collapse into one merge") {
    val cat = mkCat(3)
    val parts = (0 until 4).map(i => Part.initial(i, Seq(0, 1, 2), 1))
    val out = GPart.merge(parts, cat, looseCfg)
    assert(out.length == 1)
    assert(out.head.members == Set(0, 1, 2, 3))
    assert(out.head.rho == 4.0)
  }

  test("merging reduces total space when partitions overlap") {
    val cat = mkCat(10)
    val parts = (0 until 5).map(i => Part.initial(i, Seq(i, i + 1, i + 2), 1))
    val before = Part.totalSpaceRows(parts, cat)
    val out = GPart.merge(parts, cat, looseCfg)
    assert(Part.totalSpaceRows(out, cat) < before)
  }

  test("access-incompatible partitions are not merged even when overlapping") {
    val cat = mkCat(3)
    val a = Part.initial(0, Seq(0, 1), 1)
    val b = Part.initial(1, Seq(1, 2), 1000)
    val out = GPart.merge(Seq(a, b), cat, GPartConfig(rhoC = 2.0, rhoCAbs = 1.0))
    assert(out.length == 2)
  }

  test("S_thresh stops a merge from growing") {
    val cat = mkCat(6, rowsEach = 10)
    // chain of heavily-overlapping partitions; span cap 30 rows allows one merge of <=2 fresh files
    val parts = (0 until 5).map(i => Part.initial(i, Seq(i, i + 1), 1))
    val out = GPart.merge(parts, cat, looseCfg.copy(sThreshRows = 30))
    assert(out.forall(p => p.spanRows(cat) <= 40),
      "a merged node at >= S_thresh must stop merging (one final step can overshoot)")
    assert(out.length >= 2)
  }

  test("highest fractional overlap is merged first") {
    // file rows: 10, 30, 10, 10 — overlaps differ in weight, spans are equal.
    val cat = FileCatalog(Vector(10L, 30L, 10L, 10L), Vector.fill(4)(100L))
    val a = Part.initial(0, Seq(0, 1), 1) // span 40
    val b = Part.initial(1, Seq(1, 2), 1) // span 40; w(a,b) = 30/50 = 0.6 (heaviest)
    val c = Part.initial(2, Seq(2, 3), 1) // span 20; w(b,c) = 10/50 = 0.2; w(a,c) = 0
    // S_thresh 50: the a+b merge (span 50) freezes immediately, stranding c.
    val out = GPart.merge(Seq(a, b, c), cat, GPartConfig(rhoC = 1e9, rhoCAbs = 1e9, sThreshRows = 50))
    assert(out.exists(p => p.members == Set(0, 1)), "the heaviest edge must merge first")
    assert(out.exists(p => p.members == Set(2)))
  }

  test("of two equal-weight edges the lower id pair merges first, whatever the input order") {
    // w(A, B) = w(B, C) = 10/30; a merge spans 30 rows and freezes, so only
    // one of the two can happen, and the pair (1, 3) is lower than (3, 7).
    val cat = mkCat(4)
    val a = Part.initial(7, Seq(0, 1), 1)
    val b = Part.initial(3, Seq(1, 2), 1)
    val c = Part.initial(1, Seq(2, 3), 1)
    for (order <- Seq(a, b, c).permutations) {
      val out = GPart.merge(order, cat, looseCfg.copy(sThreshRows = 30))
      assert(out.map(_.members) == Vector(Set(7), Set(1, 3)), s"input order ${order.map(_.id)}")
    }
  }

  test("shuffled equal-weight range families give the same merges") {
    def key(out: Seq[Part]) = out.map(p => (p.id, p.files, p.members, java.lang.Double.doubleToLongBits(p.rho)))
    for (seed <- 1 to 4; (nFiles, nFamilies) <- Seq((20, 10), (162, 160), (400, 300))) {
      val cat   = mkCat(nFiles, rowsEach = 1000)
      val parts = QueryWorkload.rangeFamilies(nFiles, nFamilies, math.max(1, nFiles / 8), 0.0, seed)
      for (d <- Seq(2L, 12L, 40L)) {
        val cfg  = GPartConfig(3.0, 50.0, cat.rows.sum / d)
        val want = key(GPart.merge(parts, cat, cfg))
        for (shuffle <- 1 to 3)
          assert(key(GPart.merge(new Random(shuffle).shuffle(parts), cat, cfg)) == want,
            s"seed=$seed files=$nFiles families=$nFamilies S_thresh=total/$d shuffle=$shuffle")
      }
    }
  }

  test("output rho equals the sum of merged members' rho") {
    val cat = mkCat(4)
    val parts = Seq(Part.initial(0, Seq(0, 1), 2), Part.initial(1, Seq(1, 2), 3))
    val out = GPart.merge(parts, cat, looseCfg)
    assert(out.map(_.rho).sum == 5.0)
  }

  test("space is never worse than no-merge and cost never better than merge-all lower bound") {
    val rng = new Random(21)
    val cat = mkCat(15)
    for (_ <- 1 to 20) {
      val parts = (0 until 6).map { i =>
        Part.initial(i, (0 to 1 + rng.nextInt(3)).map(_ => rng.nextInt(15)).toSet, 1 + rng.nextInt(5))
      }
      val out = GPart.merge(parts, cat, looseCfg)
      assert(Part.totalSpaceRows(out, cat) <= Part.totalSpaceRows(parts, cat))
      // merge-all space = distinct rows: lower bound on any cover's space
      val allFiles = parts.flatMap(_.files).toSet
      assert(Part.totalSpaceRows(out, cat) >= cat.spanRows(allFiles))
    }
  }

  test("Fig 7 tradeoff: G-PART sits between no-merge and merge-all on read cost") {
    val rng = new Random(22)
    val cat = mkCat(20)
    val parts = (0 until 10).map { i =>
      val start = rng.nextInt(16)
      Part.initial(i, start until (start + 4), 1 + rng.nextInt(8))
    }
    val out = GPart.merge(parts, cat, looseCfg.copy(sThreshRows = 80))
    var all = parts.head
    parts.tail.foreach(p => all = all.merge(p, 999))
    val costNoMerge = Part.totalCost(parts, cat)
    val costAll     = Part.totalCost(Seq(all), cat)
    val costG       = Part.totalCost(out, cat)
    assert(costG >= costNoMerge - 1e-9, "merging can only increase expected read cost")
    assert(costG <= costAll + 1e-9, "S_thresh must keep cost below the merge-all extreme")
  }

  test("merge rejects two parts with the same id, naming it") {
    val parts = Seq(Part.initial(0, Seq(0, 1), 1), Part.initial(0, Seq(5, 6), 1))
    val e = intercept[IllegalArgumentException](GPart.merge(parts, mkCat(10), looseCfg))
    assert(e.getMessage.contains("part 0"))
  }

  test("merge rejects a file outside the catalog, naming the part and the file") {
    for (bad <- Seq(12, 10, -1)) {
      val parts = Seq(Part.initial(0, Seq(0, 1), 1), Part.initial(3, Seq(bad, 9), 1))
      val e = intercept[IllegalArgumentException](GPart.merge(parts, mkCat(10), looseCfg))
      assert(e.getMessage.contains("part 3") && e.getMessage.contains(s"file $bad "), e.getMessage)
    }
  }

  test("GPartConfig rejects rhoC <= 0") {
    for (bad <- Seq(0.0, -1.0, Double.NaN))
      assert(intercept[IllegalArgumentException](GPartConfig(rhoC = bad)).getMessage.contains("rhoC"))
  }

  test("GPartConfig rejects a negative rhoCAbs") {
    for (bad <- Seq(-1.0, Double.NaN))
      assert(intercept[IllegalArgumentException](GPartConfig(rhoCAbs = bad)).getMessage.contains("rhoCAbs"))
  }

  test("GPartConfig rejects sThreshRows <= 0") {
    for (bad <- Seq(0L, -5L))
      assert(intercept[IllegalArgumentException](GPartConfig(sThreshRows = bad)).getMessage.contains("sThreshRows"))
  }
}
