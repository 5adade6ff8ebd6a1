package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{OptAssign, OptGen}
import repro.partition.{GPart, GPartConfig, QueryWorkload}
import scala.util.Random

/** Solver scaling curves in N, on the driver alone (no Spark): the best warm
  * time of five runs of G-PART on Zipf range families and of OPTASSIGN on
  * random instances whose Premium and Hot capacities are 2% and 5% of the raw
  * GB, so the capacity repair runs. Latency SLAs are lifted, so every
  * instance has a plan. It prints the times and asserts coverage and
  * feasibility only: a timing bound would fail on a slower machine, not on
  * slower code.
  */
class SolverScalingBench extends AnyFunSuite {

  /** The best of five timed runs of `f`, in ms, after five untimed runs
    * that let the JIT compile it; and the last untimed run's result.
    */
  private def bestOf5[A](f: => A): (Double, A) = {
    val out = (1 to 5).map(_ => f).last
    val ms = (1 to 5).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e6
    }
    (ms.min, out)
  }

  test("G-PART at 400 to 3200 Zipf range families (2 files per family, span <= 40 files)") {
    println("\n================ Solver scaling: G-PART ================")
    println("families | files | merged parts | best of 5 (ms)")
    for (nFamilies <- Seq(400, 800, 1600, 3200)) {
      val cat   = QueryWorkload.syntheticCatalog(2 * nFamilies, rowsPerFile = 10000, bytesPerRow = 100, seed = 1)
      val parts = QueryWorkload.rangeFamilies(cat.nFiles, nFamilies, 40, zipfAlpha = 1.0, seed = 2)
      val cfg   = GPartConfig(rhoC = 3.0, rhoCAbs = 50.0, sThreshRows = cat.rows.sum / 12)
      val (ms, merged) = bestOf5(GPart.merge(parts, cat, cfg))
      assert(merged.flatMap(_.members).sorted == parts.map(_.id).sorted, s"$nFamilies families: coverage")
      println(f"$nFamilies%8d | ${cat.nFiles}%5d | ${merged.size}%12d | $ms%14.1f")
    }
  }

  test("OPTASSIGN at N = 600 to 2400 partitions, Premium and Hot capacities at 2% and 5% of raw") {
    println("\n================ Solver scaling: OPTASSIGN ================")
    println("   N | moved from the unbounded greedy | best of 5 (ms)")
    for (n <- Seq(600, 1200, 2400)) {
      val base  = OptGen.instance(new Random(n), n, k = 4, bounded = true)
      val parts = base.parts.map(_.copy(latencySlaSec = Double.PositiveInfinity))
      val raw   = parts.map(_.sizeGB).sum
      val inst  = base.copy(parts = parts, capacityGB = Vector(0.02 * raw, 0.05 * raw, Double.PositiveInfinity))
      val (ms, plan) = bestOf5(OptAssign.solve(inst))
      assert(plan.exists(OptAssign.feasible(inst, _)), s"N=$n: no feasible plan")
      val greedy = OptAssign.greedyUnbounded(inst).get
      val moved  = plan.get.zip(greedy).count { case (a, g) => a != g }
      println(f"$n%4d | $moved%31d | $ms%14.1f")
    }
  }
}
