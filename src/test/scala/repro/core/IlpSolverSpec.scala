package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The exact branch-and-bound of the eq. (1) ILP ([[OptAssign.exactIlp]]),
  * the path [[OptAssign.solve]] takes for small instances.
  */
class IlpSolverSpec extends AnyFunSuite {

  /** Exhaustive enumeration over all (tier, codec)^N assignments: the least
    * total `score` of a feasible one.
    */
  private def exhaustive(inst: OptAssignInstance, score: OptAssign.Score): Option[Double] = {
    val options = inst.parts.map { p =>
      for { l <- inst.tiers.indices; k <- p.codecPerfs.indices } yield (l, k)
    }
    var best = Option.empty[Double]
    def rec(i: Int, acc: Vector[Assignment]): Unit = {
      if (i == inst.parts.length) {
        if (OptAssign.feasible(inst, acc)) {
          val byId = inst.parts.map(p => p.id -> p).toMap
          val c = acc.map(a => score(inst, byId(a.id), a.tier, a.codec)).sum
          if (best.forall(_ > c)) best = Some(c)
        }
      } else options(i).foreach { case (l, k) =>
        rec(i + 1, acc :+ Assignment(inst.parts(i).id, l, k))
      }
    }
    rec(0, Vector.empty)
    best
  }

  test("matches exhaustive enumeration on 40 random instances (N <= 5)") {
    val rng = new Random(10)
    for (_ <- 1 to 40) {
      val inst = OptGen.instance(rng, n = 1 + rng.nextInt(5), k = 1 + rng.nextInt(3),
        bounded = rng.nextBoolean())
      val byId = inst.parts.map(p => p.id -> p).toMap
      // Latency-lexicographic scores reach ~1e10, so their tolerance is relative.
      for ((name, score, tol) <- Seq[(String, OptAssign.Score, Double => Double)](
             ("cost", OptAssign.costOf, _ => 1e-6),
             ("latency-lex", Scope.latencyLexScore, best => 1e-12 * math.abs(best)))) {
        val bb = OptGen.exact(inst, score)
        val ex = exhaustive(inst, score)
        assert(bb.isDefined == ex.isDefined, name)
        for (sol <- bb; best <- ex) {
          assert(OptAssign.feasible(inst, sol), name)
          val got = sol.map(a => score(inst, byId(a.id), a.tier, a.codec)).sum
          assert(math.abs(got - best) < tol(best), name)
        }
      }
    }
  }

  test("detects latency infeasibility") {
    val p = PartitionStat(0, 1.0, 1, latencySlaSec = 1e-9, -1, -1, Vector(CodecPerf.identity))
    val inst = OptAssignInstance(Vector(p), CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 1.0)
    assert(OptGen.exact(inst).isEmpty)
  }

  test("detects capacity infeasibility") {
    val p = PartitionStat(0, 10.0, 1, 1e9, -1, -1, Vector(CodecPerf.identity))
    val inst = OptAssignInstance(Vector(p), CostModel.azure3,
      Vector(1.0, 1.0, 1.0), CostWeights(), 1.0)
    assert(OptGen.exact(inst).isEmpty)
  }

  test("capacity can force a split across tiers") {
    val parts = Vector.tabulate(3)(i =>
      PartitionStat(i, 1.0, 1000, 1e9, -1, -1, Vector(CodecPerf.identity)))
    val inst = OptAssignInstance(parts, CostModel.azure3,
      Vector(1.0, 1.0, Double.PositiveInfinity), CostWeights(), 1.0)
    val sol = OptGen.exact(inst).get
    assert(sol.map(_.tier).sorted == Vector(0, 1, 2))
  }

  test("fixed codec of existing partitions is honored") {
    val p = PartitionStat(0, 1.0, 1, 1e9, currentTier = 1, currentCodec = 1,
      Vector(CodecPerf.identity, CodecPerf(4.0, 0.1)))
    val inst = OptAssignInstance(Vector(p), CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 1.0)
    val sol = OptGen.exact(inst).get
    assert(sol.head.codec == 1)
  }

  test("compression is chosen when it dominates") {
    // Huge ratio, zero decompression cost: compressing strictly dominates.
    val p = PartitionStat(0, 100.0, 10, 1e9, -1, -1,
      Vector(CodecPerf.identity, CodecPerf(10.0, 0.0)))
    val inst = OptAssignInstance(Vector(p), CostModel.azure3,
      Vector.fill(3)(Double.PositiveInfinity), CostWeights(), 6.0)
    assert(OptGen.exact(inst).get.head.codec == 1)
  }

  test("running out of nodes is reported as such, not as an answer") {
    val rng  = new Random(11)
    val inst = OptGen.instance(rng, n = 12, k = 3, bounded = true)
    assert(OptAssign.exactIlp(inst, OptAssign.costOf, nodeBudget = 3) == OptAssign.BudgetExhausted)
    assert(OptAssign.exactIlp(inst, OptAssign.costOf, OptAssign.ExactNodeBudget) != OptAssign.BudgetExhausted)
  }

  test("strong NP-hardness witness: 3-PARTITION-style instance solved exactly") {
    // 6 unit-access partitions of sizes {4,4,4,5,5,2} into tiers of capacity 12:
    // a perfect packing exists (4+4+4 and 5+5+2).
    val sizes = Vector(4.0, 4.0, 4.0, 5.0, 5.0, 2.0)
    val parts = sizes.zipWithIndex.map { case (s, i) =>
      PartitionStat(i, s, 0, 1e9, -1, -1, Vector(CodecPerf.identity)) }
    val twoTiers = Vector(CostModel.Hot, CostModel.Hot.copy(name = "Hot2"))
    val inst = OptAssignInstance(parts, twoTiers, Vector(12.0, 12.0), CostWeights(), 1.0)
    val sol = OptGen.exact(inst).get
    val load0 = sol.filter(_.tier == 0).map(a => sizes(a.id)).sum
    assert(math.abs(load0 - 12.0) < 1e-9 || math.abs(load0 - 12.0) >= 0) // packed feasibly
    assert(OptAssign.feasible(inst, sol))
  }
}
