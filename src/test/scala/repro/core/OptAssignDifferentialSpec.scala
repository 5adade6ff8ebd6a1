package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** [[OptAssign.greedyRepair]] against the first-written repair kept in
  * [[OptAssignReference]]: the assignments (ids, tiers, codecs) and the
  * infeasible verdicts must be exactly equal, tie-breaks included. The
  * repair is called directly, since [[OptAssign.solve]] sends small
  * instances to the exact search.
  */
class OptAssignDifferentialSpec extends AnyFunSuite {

  private def assertSame(inst: OptAssignInstance, clue: String): Unit = {
    assert(OptAssign.greedyRepair(inst, OptAssign.costOf) == OptAssignReference.solve(inst), clue)
    assert(OptAssign.greedyRepair(inst, Scope.latencyLexScore) ==
      OptAssignReference.solveScored(inst, Scope.latencyLexScore(inst, _, _, _)),
      s"$clue (latency-lexicographic score)")
  }

  /** The instance with its Premium and Hot capacities set to the given
    * fractions of the raw volume: tight fractions make the repair evict many
    * partitions.
    */
  private def withCaps(inst: OptAssignInstance, premium: Double, hot: Double): OptAssignInstance = {
    val raw = inst.parts.map(_.sizeGB).sum
    inst.copy(capacityGB = Vector(premium * raw, hot * raw, Double.PositiveInfinity))
  }

  test("bounded and unbounded random instances up to N = 400 give identical answers") {
    val rng = new Random(41)
    for (n <- Seq(1, 3, 8, 20, 60, 150, 400); bounded <- Seq(false, true); trial <- 1 to 3) {
      val inst = OptGen.instance(rng, n, k = 1 + rng.nextInt(4), bounded)
      assertSame(inst, s"n=$n bounded=$bounded trial=$trial")
    }
  }

  test("tight capacities: long repairs give identical answers") {
    val rng = new Random(42)
    for (n <- Seq(50, 200, 400); (premium, hot) <- Seq((0.02, 0.05), (0.1, 0.1), (0.0, 0.3))) {
      val inst = withCaps(OptGen.instance(rng, n, k = 4, bounded = true), premium, hot)
      assertSame(inst, s"n=$n caps=($premium, $hot)")
    }
  }

  test("non-contiguous ids >= 65536 in shuffled order give identical answers") {
    val rng = new Random(43)
    for (n <- Seq(10, 100, 300)) {
      val base = withCaps(OptGen.instance(rng, n, k = 3, bounded = true), 0.05, 0.1)
      val ids  = rng.shuffle((0 until 4 * n).toVector).take(n).map(65536 + 7 * _)
      val parts = rng.shuffle(base.parts.zip(ids).map { case (p, id) => p.copy(id = id) })
      assertSame(base.copy(parts = parts), s"n=$n")
      val wholeTables = base.parts.zipWithIndex.map { case (p, i) => p.copy(id = 100000 + i) }
      assertSame(base.copy(parts = wholeTables), s"n=$n ids 100000 + i")
    }
  }

  test("duplicated partitions with equal scores break ties identically, whatever the ids") {
    val rng = new Random(44)
    for (copies <- Seq(2, 5); n <- Seq(4, 40)) {
      val base  = OptGen.instance(rng, n, k = 3, bounded = false)
      val dups  = (0 until copies).flatMap(c => base.parts.map(p => p.copy(id = c * n + p.id))).toVector
      val large = rng.shuffle((0 until 4 * dups.size).toVector).take(dups.size).map(65536 + 7 * _)
      val idSchemes = Seq("contiguous" -> dups.map(_.id), "65536 + 7x" -> large,
        "100000 + i" -> dups.indices.map(100000 + _).toVector)
      for ((scheme, ids) <- idSchemes; (premium, hot) <- Seq((0.05, 0.1), (0.3, 0.3))) {
        val parts = dups.zip(ids).map { case (p, id) => p.copy(id = id) }
        assertSame(withCaps(base.copy(parts = parts), premium, hot), s"copies=$copies n=$n ids=$scheme")
      }
    }
  }

  test("relabeling the ids of duplicated equal-score partitions keeps the plan, position by position") {
    val rng = new Random(45)
    for (copies <- Seq(2, 5); n <- Seq(4, 40); (premium, hot) <- Seq((0.05, 0.1), (0.3, 0.3))) {
      val base = OptGen.instance(rng, n, k = 3, bounded = false)
      val dups = (0 until copies).flatMap(c => base.parts.map(p => p.copy(id = c * n + p.id))).toVector
      val inst = withCaps(base.copy(parts = dups), premium, hot)
      def byPosition(i: OptAssignInstance): Vector[(Int, Int)] = {
        val plan = OptAssign.greedyRepair(i, OptAssign.costOf).get.map(a => a.id -> a).toMap
        i.parts.map(p => (plan(p.id).tier, plan(p.id).codec)).toVector
      }
      val want = byPosition(inst)
      val ids  = rng.shuffle((0 until 4 * dups.size).toVector).take(dups.size).map(65536 + 7 * _)
      val relabeled = inst.copy(parts = dups.zip(ids).map { case (p, id) => p.copy(id = id) })
      assert(byPosition(relabeled) == want, s"copies=$copies n=$n caps=($premium, $hot)")
    }
  }
}
