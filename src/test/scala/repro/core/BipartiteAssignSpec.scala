package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class BipartiteAssignSpec extends AnyFunSuite {

  private def equalSizedInstance(rng: Random, n: Int, size: Double,
                                 capsMultiples: Vector[Int]): OptAssignInstance = {
    val parts = Vector.tabulate(n) { i =>
      PartitionStat(i, size, rng.nextInt(500).toDouble,
        latencySlaSec = if (rng.nextInt(4) == 0) 0.01 else Double.PositiveInfinity,
        currentTier = -1, currentCodec = -1, codecPerfs = Vector(CodecPerf.identity))
    }
    OptAssignInstance(parts, CostModel.azure3,
      capsMultiples.map(z => if (z < 0) Double.PositiveInfinity else z * size),
      CostWeights(), months = 3.0)
  }

  test("Theorem 2: matching equals branch-and-bound on 40 random equal-size instances") {
    val rng = new Random(7)
    for (_ <- 1 to 40) {
      val n = 1 + rng.nextInt(7)
      val caps = Vector(rng.nextInt(n + 1), rng.nextInt(n + 1), -1)
      val inst = equalSizedInstance(rng, n, 0.5 + rng.nextDouble() * 3, caps)
      val m = BipartiteAssign.solve(inst)
      val e = OptGen.exact(inst)
      assert(m.isDefined == e.isDefined)
      for (ms <- m; es <- e) {
        assert(OptAssign.feasible(inst, ms))
        assert(math.abs(OptAssign.totalCost(inst, ms) - OptAssign.totalCost(inst, es)) < 1e-6)
      }
    }
  }

  test("capacity expressed as Z_l copies is honored") {
    val parts = Vector.tabulate(4)(i =>
      PartitionStat(i, 1.0, i * 50.0, Double.PositiveInfinity, -1, -1,
        Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector(1.0, 1.0, Double.PositiveInfinity), CostWeights(), months = 3.0)
    val sol = BipartiteAssign.solve(inst).get
    assert(sol.count(_.tier == 0) <= 1)
    assert(sol.count(_.tier == 1) <= 1)
    assert(OptAssign.feasible(inst, sol))
  }

  test("infeasible when total capacity is short") {
    val rng  = new Random(9)
    val inst0 = equalSizedInstance(rng, 3, 1.0, Vector(1, 1, -1))
    // shrink the last tier to finite 0 capacity
    val inst = inst0.copy(capacityGB = Vector(1.0, 1.0, 0.0))
    assert(BipartiteAssign.solve(inst).isEmpty)
  }

  test("latency-restricted partitions only go to Premium") {
    val parts = Vector(
      PartitionStat(0, 1.0, 100, latencySlaSec = 0.01, -1, -1, Vector(CodecPerf.identity)),
      PartitionStat(1, 1.0, 0, Double.PositiveInfinity, -1, -1, Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector(1.0, 10.0, Double.PositiveInfinity), CostWeights(), 3.0)
    val sol = BipartiteAssign.solve(inst).get
    assert(sol.find(_.id == 0).get.tier == 0)
  }

  test("unequal sizes are rejected") {
    val parts = Vector(
      PartitionStat(0, 1.0, 0, 1e9, -1, -1, Vector(CodecPerf.identity)),
      PartitionStat(1, 2.0, 0, 1e9, -1, -1, Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 1.0)
    assertThrows[IllegalArgumentException] { BipartiteAssign.solve(inst) }
  }

  test("compression schemes are rejected (K = 0 case only)") {
    val parts = Vector(
      PartitionStat(0, 1.0, 0, 1e9, -1, -1, Vector(CodecPerf.identity, CodecPerf(2, 1))))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 1.0)
    assertThrows[IllegalArgumentException] { BipartiteAssign.solve(inst) }
  }

  test("cold data lands in the cheapest storage tier") {
    val parts = Vector.tabulate(3)(i =>
      PartitionStat(i, 1.0, 0, Double.PositiveInfinity, -1, -1, Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 6.0)
    val sol = BipartiteAssign.solve(inst).get
    assert(sol.forall(_.tier == 2)) // Cool is cheapest among Premium/Hot/Cool
  }
}
