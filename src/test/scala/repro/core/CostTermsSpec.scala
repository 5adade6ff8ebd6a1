package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** [[OptAssign.terms]] and what reads it: the objective, the latency check,
  * the HCompress score and the Tables IX–XI report.
  */
class CostTermsSpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  test("costOf, latencyOk, latencyLexScore and report equal the first-written formulas bit for bit") {
    val rng = new Random(61)
    val weights = Seq(CostWeights(), CostWeights(alpha = 0.1, beta = 1.0, gamma = 0.1),
      CostWeights(alpha = 5.0, beta = 1.0), CostWeights(alpha = 0.3, beta = 7.0, gamma = 2.5))
    for (w <- weights; months <- Seq(0.75, 2.0, 5.5); n <- Seq(1, 7, 40); bounded <- Seq(false, true)) {
      val inst = OptGen.instance(rng, n, k = 1 + rng.nextInt(4), bounded).copy(weights = w, months = months)
      val clue = s"weights=$w months=$months n=$n"
      for (p <- inst.parts; l <- inst.tiers.indices; k <- p.codecPerfs.indices) {
        assert(bits(OptAssign.costOf(inst, p, l, k)) == bits(OptAssignReference.costOf(inst, p, l, k)), clue)
        assert(OptAssign.latencyOk(inst, p, l, k) == OptAssignReference.latencyOk(inst, p, l, k), clue)
        assert(bits(Scope.latencyLexScore(inst, p, l, k)) ==
          bits(OptAssignReference.latencyLexScore(inst, p, l, k)), clue)
      }
      val plan = inst.parts.map(p =>
        Assignment(p.id, rng.nextInt(inst.tiers.size), rng.nextInt(p.codecPerfs.size)))
      val v = Scope.variants(rng.nextInt(Scope.variants.size))
      assert(Scope.report(v, inst, plan) == OptAssignReference.report(v, inst, plan, inst.months), clue)
    }
  }

  test("report bills two partitions at weights (1,1,1), whatever the steering weights") {
    // Partition 0: new, 4 GB, 10 accesses, codec 1 halves it and takes 3 s/GB;
    // on Premium. Partition 1: 3 GB on Hot, uncompressed, 5 accesses; moves to Cool.
    val parts = Vector(
      PartitionStat(0, sizeGB = 4.0, accesses = 10, latencySlaSec = Double.PositiveInfinity,
        currentTier = -1, currentCodec = -1, codecPerfs = Vector(CodecPerf.identity, CodecPerf(2.0, 3.0))),
      PartitionStat(1, sizeGB = 3.0, accesses = 5, latencySlaSec = Double.PositiveInfinity,
        currentTier = 1, currentCodec = 0, codecPerfs = Vector(CodecPerf.identity)))
    val plan = Vector(Assignment(0, 0, 1), Assignment(1, 2, 0))
    val v = Scope.variants.find(_.key == "scope-total").get
    def reportAt(w: CostWeights) =
      Scope.report(v, OptAssignInstance(parts, CostModel.azure3,
        Vector.fill(3)(Double.PositiveInfinity), w, months = 2.0), plan)

    val r = reportAt(CostWeights())
    // storage: 15 * 2 months * 2 GB + Premium write 0.004659 * 2
    //        + 1.52 * 2 months * 3 GB + Hot read 0.01331 * 3 + Cool write 0.0256 * 3
    assert(math.abs(r.storageCost - (60.0 + 0.009318 + 9.12 + 0.03993 + 0.0768)) < 1e-9)
    // decompression: 10 accesses * 0.001 cents/s * (3 s/GB * 4 GB)
    assert(math.abs(r.decompCost - 0.12) < 1e-9)
    // read: 10 * 0.004659 * 2 GB + 5 * 0.0333 * 3 GB
    assert(math.abs(r.readCost - (0.09318 + 0.4995)) < 1e-9)
    // access-weighted TTFB (10 * 0.0053 + 5 * 0.0614) / 15 and decompression (10 * 12 s) / 15
    assert(math.abs(r.readLatencySec - 0.024) < 1e-12)
    assert(math.abs(r.decompLatencyMs - 8000.0) < 1e-9)
    assert(r.tierCounts == Map("Premium" -> 1, "Cool" -> 1))
    for (w <- Seq(CostWeights(alpha = 0.1, beta = 1.0, gamma = 0.1), CostWeights(alpha = 5.0, beta = 1.0)))
      assert(reportAt(w) == r, s"weights $w")
  }
}
