package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Random-instance generators and the exact-search oracle shared by the
  * optimizer specs.
  */
object OptGen {
  def perfs(rng: Random, k: Int): Vector[CodecPerf] =
    CodecPerf.identity +: Vector.fill(k - 1)(
      CodecPerf(1.0 + rng.nextDouble() * 6, rng.nextDouble() * 8))

  def part(rng: Random, id: Int, k: Int, newData: Boolean, nTiers: Int): PartitionStat =
    PartitionStat(
      id = id,
      sizeGB = 0.1 + rng.nextDouble() * 10,
      accesses = rng.nextInt(200).toDouble,
      latencySlaSec = if (rng.nextBoolean()) Double.PositiveInfinity else 30 + rng.nextDouble() * 300,
      currentTier = if (newData) -1 else rng.nextInt(nTiers),
      currentCodec = if (newData) -1 else rng.nextInt(k),
      codecPerfs = perfs(rng, k),
    )

  def instance(rng: Random, n: Int, k: Int, bounded: Boolean): OptAssignInstance = {
    val tiers = CostModel.azure3
    val parts = Vector.tabulate(n)(i => part(rng, i, k, rng.nextBoolean(), tiers.length))
    val total = parts.map(_.sizeGB).sum
    val caps =
      if (bounded) Vector(total * (0.2 + rng.nextDouble() * 0.3),
                          total * (0.3 + rng.nextDouble() * 0.4),
                          Double.PositiveInfinity)
      else Vector.fill(tiers.length)(Double.PositiveInfinity)
    OptAssignInstance(parts, tiers, caps, CostWeights(), months = 5.5)
  }

  /** The exact search's optimum under `score`; fails the test if the search
    * runs out of nodes.
    */
  def exact(inst: OptAssignInstance,
            score: OptAssign.Score = OptAssign.costOf): Option[Vector[Assignment]] =
    OptAssign.exactIlp(inst, score, OptAssign.ExactNodeBudget) match {
      case OptAssign.Optimum(plan)   => plan
      case OptAssign.BudgetExhausted => throw new AssertionError("exact search ran out of nodes")
    }
}

class OptAssignSpec extends AnyFunSuite {

  private def simpleInst(parts: Vector[PartitionStat],
                         caps: Option[Vector[Double]] = None): OptAssignInstance =
    OptAssignInstance(parts, CostModel.azure3,
      caps.getOrElse(Vector.fill(3)(Double.PositiveInfinity)), CostWeights(), months = 2.0)

  private val onePart = PartitionStat(0, sizeGB = 4.0, accesses = 10, latencySlaSec = 1e9,
    currentTier = -1, currentCodec = -1,
    codecPerfs = Vector(CodecPerf.identity, CodecPerf(2.0, 3.0)))

  test("costOf matches the hand-computed eq. (1) terms (no compression)") {
    val inst = simpleInst(Vector(onePart))
    // tier Hot(1), codec identity: storage 2.08*2*4 + write 0.01331*4 + reads 10*0.01331*4
    val expected = 2.08 * 2 * 4 + 0.01331 * 4 + 10 * (0.0 + 0.01331 * 4)
    assert(math.abs(OptAssign.costOf(inst, onePart, 1, 0) - expected) < 1e-9)
  }

  test("costOf matches the hand-computed eq. (1) terms (with compression)") {
    val inst = simpleInst(Vector(onePart))
    // codec 1: ratio 2 -> stored 2GB, decomp 3 s/GB * 4GB = 12s per access
    val stored   = 4.0 / 2.0
    val expected = 15.0 * 2 * stored + 0.004659 * stored +
      10 * (0.001 * 12.0 + 0.004659 * stored)
    assert(math.abs(OptAssign.costOf(inst, onePart, 0, 1) - expected) < 1e-9)
  }

  test("weights scale their respective cost terms") {
    val inst  = simpleInst(Vector(onePart))
    val heavy = inst.copy(weights = CostWeights(alpha = 2, beta = 1, gamma = 1))
    val base  = OptAssign.costOf(inst, onePart, 1, 0)
    val scaled = OptAssign.costOf(heavy, onePart, 1, 0)
    val storageTerm = 2.08 * 2 * 4
    assert(math.abs(scaled - base - storageTerm) < 1e-9)
  }

  test("latencyOk: decompression time plus TTFB against the SLA") {
    val p = onePart.copy(latencySlaSec = 12.0)
    val inst = simpleInst(Vector(p))
    assert(OptAssign.latencyOk(inst, p, 0, 0))   // 0 + 0.0053 <= 12
    assert(!OptAssign.latencyOk(inst, p, 0, 1))  // 12s decomp + 0.0053 > 12
  }

  test("latencyOk boundary: exactly at the SLA is feasible") {
    val p = onePart.copy(latencySlaSec = 0.0053)
    val inst = simpleInst(Vector(p))
    assert(OptAssign.latencyOk(inst, p, 0, 0))
  }

  test("codecOk: existing partitions keep their codec") {
    val existing = onePart.copy(currentTier = 1, currentCodec = 1)
    assert(!OptAssign.codecOk(existing, 0))
    assert(OptAssign.codecOk(existing, 1))
    assert(OptAssign.codecOk(onePart, 0) && OptAssign.codecOk(onePart, 1))
  }

  test("feasibleOptions is sorted by cost and filters infeasible tiers") {
    val p    = onePart.copy(latencySlaSec = 0.01) // only Premium's TTFB fits, decomp rules codec 1 out
    val inst = simpleInst(Vector(p))
    val opts = OptAssign.feasibleOptions(inst, p)
    assert(opts.map(_._1).forall(_ == 0))
    assert(opts.map(_._2) == Vector(0))
    val all = OptAssign.feasibleOptions(inst, onePart)
    assert(all.map(_._3) == all.map(_._3).sorted)
  }

  test("greedyUnbounded picks each partition's cheapest feasible option") {
    val inst = simpleInst(Vector(onePart))
    val sol  = OptAssign.greedyUnbounded(inst).get
    val best = OptAssign.feasibleOptions(inst, onePart).head
    assert(sol == Vector(Assignment(0, best._1, best._2)))
  }

  test("greedyUnbounded returns None when a partition has no feasible option") {
    val p    = onePart.copy(latencySlaSec = 1e-9)
    assert(OptAssign.greedyUnbounded(simpleInst(Vector(p))).isEmpty)
  }

  test("Theorem 3: greedyUnbounded equals branch-and-bound on 60 random unbounded instances") {
    val rng = new Random(1)
    for (_ <- 1 to 60) {
      val inst = OptGen.instance(rng, n = 1 + rng.nextInt(8), k = 1 + rng.nextInt(3), bounded = false)
      val g = OptAssign.greedyUnbounded(inst)
      val e = OptGen.exact(inst)
      assert(g.isDefined == e.isDefined)
      for (gs <- g; es <- e) {
        assert(OptAssign.feasible(inst, gs))
        assert(math.abs(OptAssign.totalCost(inst, gs) - OptAssign.totalCost(inst, es)) < 1e-6)
      }
    }
  }

  test("solve with slack capacity reduces to the unbounded greedy") {
    val rng = new Random(2)
    for (_ <- 1 to 20) {
      val inst = OptGen.instance(rng, n = 6, k = 2, bounded = false)
      (OptAssign.solve(inst), OptAssign.greedyUnbounded(inst)) match {
        case (Some(a), Some(b)) =>
          assert(OptAssign.totalCost(inst, a) == OptAssign.totalCost(inst, b))
        case (a, b) => assert(a.isEmpty && b.isEmpty)
      }
    }
  }

  test("greedyRepair respects binding capacities and stays near the exact optimum") {
    val rng = new Random(3)
    var solved = 0
    for (_ <- 1 to 40) {
      val inst = OptGen.instance(rng, n = 7, k = 2, bounded = true)
      val h = OptAssign.greedyRepair(inst, OptAssign.costOf)
      val e = OptGen.exact(inst)
      for (hs <- h) {
        assert(OptAssign.feasible(inst, hs))
        val exact = e.getOrElse(fail("heuristic found a solution the exact solver missed"))
        val hc = OptAssign.totalCost(inst, hs)
        val ec = OptAssign.totalCost(inst, exact)
        assert(hc >= ec - 1e-6, "heuristic cannot beat the optimum")
        assert(hc <= ec * 1.5 + 1e-6, s"heuristic too far from optimum: $hc vs $ec")
        solved += 1
      }
    }
    assert(solved > 20, "heuristic should solve most random capacity instances")
  }

  test("solve takes the exact search up to 12 partitions and the repair above") {
    val rng = new Random(5)
    // The first seeded 12-partition instance on which the repair misses the optimum.
    val small = Iterator.continually(OptGen.instance(rng, n = 12, k = 1, bounded = true))
      .take(200).find { inst =>
        (OptAssign.greedyRepair(inst, OptAssign.costOf), OptGen.exact(inst)) match {
          case (Some(h), Some(e)) => OptAssign.totalCost(inst, h) > OptAssign.totalCost(inst, e) + 1e-6
          case _                  => false
        }
      }.getOrElse(fail("no instance where the repair is strictly worse"))
    assert(OptAssign.solve(small) == OptGen.exact(small))
    for (n <- Seq(13, 40)) {
      val large = OptGen.instance(rng, n, k = 2, bounded = true)
      assert(OptAssign.solve(large) == OptAssign.greedyRepair(large, OptAssign.costOf), s"n=$n")
    }
  }

  test("feasible() rejects over-capacity, missing coverage and SLA violations") {
    val inst = simpleInst(Vector(onePart), caps = Some(Vector(0.5, 100.0, 100.0)))
    assert(!OptAssign.feasible(inst, Vector(Assignment(0, 0, 0)))) // 4GB > 0.5GB premium
    assert(OptAssign.feasible(inst, Vector(Assignment(0, 1, 0))))
    assert(!OptAssign.feasible(inst, Vector.empty))
  }

  test("totalCost sums per-partition costs") {
    val p2   = onePart.copy(id = 1, sizeGB = 1.0)
    val inst = simpleInst(Vector(onePart, p2))
    val a    = Vector(Assignment(0, 1, 0), Assignment(1, 2, 0))
    val expected = OptAssign.costOf(inst, onePart, 1, 0) + OptAssign.costOf(inst, p2, 2, 0)
    assert(math.abs(OptAssign.totalCost(inst, a) - expected) < 1e-9)
  }

  test("solve with a latency-lexicographic score prefers the low-latency tier") {
    val inst = simpleInst(Vector(onePart))
    val sol = OptAssign.solve(inst, (inst, p, l, k) =>
      (p.codecPerfs(k).decompSecPerGB * p.sizeGB + inst.tiers(l).ttfbSec) * 1e9 +
        OptAssign.costOf(inst, p, l, k)).get
    assert(sol.head.tier == 0 && sol.head.codec == 0) // Premium, no decompression
  }

  test("storedGB divides by the compression ratio") {
    assert(OptAssign.storedGB(onePart, 1) == 2.0)
    assert(OptAssign.storedGB(onePart, 0) == 4.0)
  }

  test("PartitionStat rejects NaN or negative sizeGB") {
    for (bad <- Seq(Double.NaN, -1.0)) {
      val e = intercept[IllegalArgumentException](onePart.copy(sizeGB = bad))
      assert(e.getMessage.contains("sizeGB"))
    }
  }

  test("PartitionStat rejects NaN or negative accesses") {
    for (bad <- Seq(Double.NaN, -0.5)) {
      val e = intercept[IllegalArgumentException](onePart.copy(accesses = bad))
      assert(e.getMessage.contains("accesses"))
    }
  }

  test("PartitionStat rejects NaN or negative latencySlaSec") {
    for (bad <- Seq(Double.NaN, -1.0)) {
      val e = intercept[IllegalArgumentException](onePart.copy(latencySlaSec = bad))
      assert(e.getMessage.contains("latencySlaSec") && e.getMessage.contains(bad.toString))
    }
  }

  test("CodecPerf rejects NaN, zero or negative ratio") {
    for (bad <- Seq(Double.NaN, 0.0, -2.0)) {
      val e = intercept[IllegalArgumentException](CodecPerf(bad, 1.0))
      assert(e.getMessage.contains("ratio") && e.getMessage.contains(bad.toString))
    }
  }

  test("CodecPerf rejects NaN or negative decompSecPerGB") {
    for (bad <- Seq(Double.NaN, -0.1)) {
      val e = intercept[IllegalArgumentException](CodecPerf(2.0, bad))
      assert(e.getMessage.contains("decompression") && e.getMessage.contains(bad.toString))
    }
  }

  test("PartitionStat rejects an empty codecPerfs") {
    val e = intercept[IllegalArgumentException](onePart.copy(codecPerfs = Vector.empty))
    assert(e.getMessage.contains("codecPerfs"))
  }

  test("OptAssignInstance rejects NaN or negative capacities") {
    for (bad <- Seq(Double.NaN, -2.0)) {
      val e = intercept[IllegalArgumentException](
        simpleInst(Vector(onePart), caps = Some(Vector(1.0, bad, Double.PositiveInfinity))))
      assert(e.getMessage.contains("capacities"))
    }
  }

  test("OptAssignInstance rejects repeated partition ids") {
    val parts = Vector.tabulate(13)(i => onePart.copy(id = if (i == 12) 3 else i))
    val e = intercept[IllegalArgumentException](simpleInst(parts))
    assert(e.getMessage.contains("partition ids must be distinct"))
  }

  test("solve's plan check: an infeasible plan throws, a feasible one passes") {
    val parts = Vector.tabulate(3)(i => PartitionStat(10 + i, sizeGB = 2.0, accesses = 5.0,
      latencySlaSec = 1e7, currentTier = -1, currentCodec = -1, Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3, Vector(3.0, 3.0, Double.PositiveInfinity),
      CostWeights(), months = 5.5)
    val overPremium = parts.map(p => Assignment(p.id, 0, 0)) // 6 GB on a 3 GB tier
    val e = intercept[IllegalStateException](OptAssign.checked(inst, overPremium))
    assert(e.getMessage.contains("capacity"))
    val fits = Vector(Assignment(10, 0, 0), Assignment(11, 1, 0), Assignment(12, 2, 0))
    assert(OptAssign.checked(inst, fits) == fits)
  }
}
