package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class OrderedDPSpec extends AnyFunSuite {

  /** Ordered (time-series) partitions: each covers a contiguous file range
    * overlapping its neighbour, ordered by end file.
    */
  private def orderedParts(rng: Random, n: Int, nFiles: Int): (Vector[Part], FileCatalog) = {
    val cat = FileCatalog(
      Vector.fill(nFiles)(1L + rng.nextInt(20)),
      Vector.fill(nFiles)(100L))
    var end = 1 + rng.nextInt(3)
    val ps = (0 until n).map { i =>
      val start = math.max(0, end - 1 - rng.nextInt(3))
      val p     = Part.initial(i, start to math.min(end, nFiles - 1), 1 + rng.nextInt(5))
      end = math.min(nFiles - 1, end + 1 + rng.nextInt(2))
      p
    }.toVector
    (ps, cat)
  }

  test("singleton instance: one merge, space = span") {
    val cat = FileCatalog(Vector(10L), Vector(100L))
    val p   = Part.initial(0, Seq(0), 2)
    val sol = OrderedDP.solve(Vector(p), cat, costThresh = 100.0, eps = 0.1).get
    assert(sol.merges.length == 1 && sol.spaceRows == 10L)
  }

  test("tight budget forbids merging; generous budget allows it") {
    val cat = FileCatalog(Vector(10L, 10L, 10L), Vector(100L, 100L, 100L))
    val a = Part.initial(0, Seq(0, 1), 1)
    val b = Part.initial(1, Seq(1, 2), 1)
    // all-singleton cost = 20*1 + 20*1 = 40; merged cost = 30 * 2 = 60
    val tight = OrderedDP.solve(Vector(a, b), cat, costThresh = 45, eps = 0.01).get
    assert(tight.merges.length == 2 && tight.spaceRows == 40L)
    val loose = OrderedDP.solve(Vector(a, b), cat, costThresh = 70, eps = 0.01).get
    assert(loose.merges.length == 1 && loose.spaceRows == 30L)
  }

  test("Theorem 6: space <= brute-force optimum, cost <= (1 + N*eps) * threshold (40 random instances)") {
    val rng = new Random(30)
    for (_ <- 1 to 40) {
      val n = 2 + rng.nextInt(7)
      val (parts, cat) = orderedParts(rng, n, 25)
      val allMergedCost = {
        var m = parts.head; parts.tail.foreach(p => m = m.merge(p, 999)); m.cost(cat)
      }
      val noMergeCost = Part.totalCost(parts, cat)
      val thresh = (noMergeCost + allMergedCost) / 2
      val eps = 1.0 / n
      val dp = OrderedDP.solve(parts, cat, thresh, eps)
      val bf = OrderedDPOracle.bruteForce(parts, cat, thresh)
      for (d <- dp; b <- bf) {
        assert(d.spaceRows <= b.spaceRows,
          s"DP space ${d.spaceRows} must be <= exact ${b.spaceRows} (cost axis is relaxed)")
        assert(d.cost <= (1 + n * eps) * thresh + 1e-6,
          s"DP cost ${d.cost} exceeded the bi-criteria bound")
      }
      // The DP may only fail when brute force also fails.
      assert(!(dp.isEmpty && bf.nonEmpty))
    }
  }

  test("eps = 1/N gives the (1,2) bi-criteria guarantee") {
    val rng = new Random(31)
    for (_ <- 1 to 20) {
      val n = 3 + rng.nextInt(5)
      val (parts, cat) = orderedParts(rng, n, 20)
      val thresh = Part.totalCost(parts, cat) * 1.2
      val sol = OrderedDP.solve(parts, cat, thresh, eps = 1.0 / n)
      for (s <- sol) assert(s.cost <= 2 * thresh + 1e-6)
    }
  }

  test("merges cover every partition exactly once, contiguously") {
    val rng = new Random(32)
    val (parts, cat) = orderedParts(rng, 8, 25)
    val sol = OrderedDP.solve(parts, cat, Part.totalCost(parts, cat) * 2, eps = 0.05).get
    val members = sol.merges.flatMap(_.members)
    assert(members.sorted == parts.map(_.id).sorted)
    // contiguity: member ids of each merge form a consecutive range
    sol.merges.foreach { m =>
      val ids = m.members.toVector.sorted
      assert(ids == (ids.head to ids.last).toVector)
    }
  }

  test("unbounded budget collapses to min-space solution (merge-all when beneficial)") {
    val cat = FileCatalog(Vector.fill(4)(10L), Vector.fill(4)(100L))
    val parts = (0 until 3).map(i => Part.initial(i, Seq(i, i + 1), 1)).toVector
    val sol = OrderedDP.solve(parts, cat, costThresh = 1e9, eps = 0.01).get
    assert(sol.spaceRows == 40L) // distinct rows: one merge of everything
    assert(sol.merges.length == 1)
  }

  test("brute force rejects an impossible threshold") {
    val cat = FileCatalog(Vector(10L), Vector(100L))
    val p = Part.initial(0, Seq(0), 5)
    assert(OrderedDPOracle.bruteForce(Vector(p), cat, costThresh = 1.0).isEmpty)
  }

  test("eps must be positive") {
    val cat = FileCatalog(Vector(10L), Vector(100L))
    val p = Part.initial(0, Seq(0), 1)
    assertThrows[IllegalArgumentException] {
      OrderedDP.solve(Vector(p), cat, 10.0, eps = 0.0)
    }
  }
}
