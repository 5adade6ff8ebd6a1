package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, SynthData}
import repro.compress.{ComPredict, Layouts}
import repro.core._
import repro.partition.GPartConfig

/** Fig. 5 reproduction: the effect of COMPREDICT's prediction errors on
  * OPTASSIGN. The paper shows the cost/latency trade-off curve of the
  * optimizer driven by predicted compression performance is almost
  * indistinguishable from the curve driven by ground-truth measurements.
  */
class Fig5Spec extends AnyFunSuite with SparkSpec {

  test("OPTASSIGN with predicted compression tracks ground-truth compression (Fig 5)") {
    val lake = Scope.buildLake(Seq(
      Scope.TableSpec("orders", SynthData.orders(spark, 0.01), "o_orderkey", 10),
      Scope.TableSpec("customer", SynthData.customer(spark, 0.05), "c_custkey", 6),
    ))
    val initial = Scope.initialPartitions(lake, familiesPerTable = 6, zipfAlpha = 1.0,
      freqScale = 20.0, seed = 9)
    val merged = repro.partition.GPart.merge(initial, lake.catalog,
      GPartConfig(3.0, 1000.0, lake.catalog.rows.sum / 8))

    // Train the predictor on query samples from the same tables.
    val samples = ExpCompredict.querySamples(spark, 0.01, skew = false,
      queriesPerTable = 25, maxRows = 3000, seed = 10)
    val predictor = ComPredict.trainPredictor(samples, Layouts.Columnar)

    val truth = Scope.prepare(lake, merged, bytesScale = 100.0, compression = true,
      sampleCap = 1500)
    val predStats = truth.stats.zip(lake.sampleParts(merged, 1500)).map { case (st, s) =>
      st.copy(codecPerfs = predictor.predict(s.rows, s.schema))
    }

    // Sweep the alpha/beta trade-off as in Fig 5. Both assignments are
    // BILLED against ground-truth compression, so the gap isolates the
    // effect of prediction error on the optimizer's decisions.
    for ((a, b) <- Seq((1.0, 1.0), (1.0, 5.0), (5.0, 1.0))) {
      val w = CostWeights(alpha = a, beta = b)
      val v = Scope.variants.find(_.key == "scope-nocap").get.copy(weights = w)
      val truthInst  = v.instance(truth.stats, months = 5.5)
      val gtChosen   = OptAssign.solve(truthInst).get
      val predChosen = OptAssign.solve(v.instance(predStats, months = 5.5)).get
      // Bill both assignments with the ground-truth instance's weighted
      // objective: the truth-driven greedy is provably optimal there
      // (Theorem 3), so the gap is exactly the price of prediction error.
      val gtCost = OptAssign.totalCost(truthInst, gtChosen)
      val prCost = OptAssign.totalCost(truthInst, predChosen)
      assert(prCost >= gtCost - 1e-9,
        "ground-truth-driven assignment is optimal under ground-truth billing")
      assert(prCost <= gtCost * 1.2 + 1e-9,
        s"alpha=$a beta=$b: prediction error cost $prCost vs optimal $gtCost")
      val gt = Scope.report(v, truthInst, gtChosen)
      val pr = Scope.report(v, truthInst, predChosen)
      assert(math.abs(pr.readLatencySec - gt.readLatencySec) < 0.1,
        s"alpha=$a beta=$b: latency curves must coincide")
    }
  }
}
