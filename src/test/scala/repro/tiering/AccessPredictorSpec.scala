package repro.tiering

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.CostModel

class AccessPredictorSpec extends AnyFunSuite with SparkSpec {

  private lazy val acc = EnterpriseSim.account("p", nDatasets = 250, totalPB = 0.1,
    nMonths = 20, seed = 97)

  test("idealTiers: cold datasets are labelled Cool, hot readers Hot") {
    val ideal = AccessPredictor.idealTiers(acc, CostModel.hotCool, 0, t0 = 12, horizon = 2)
    val known = Tiering.knownAccesses(acc, 12, 2)
    val cold = acc.datasets.filter(d => known(d.id) == 0)
    assert(cold.nonEmpty)
    cold.foreach(d => assert(ideal(d.id) == 1, s"cold ${d.id} should be Cool"))
  }

  test("out-of-time RF predictor is near-ideal (accuracy > 0.85, macro-F1 > 0.8)") {
    val (pred, conf) = AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 0,
      trainT0s = Seq(8, 10, 12), testT0 = 14, horizon = 2)
    assert(conf.total == acc.datasets.length)
    assert(conf.accuracy > 0.85, s"accuracy ${conf.accuracy}")
    assert(conf.macroF1 > 0.8, s"macroF1 ${conf.macroF1}")
    assert(pred.size == acc.datasets.length)
  }

  test("training windows must precede the test window") {
    assertThrows[IllegalArgumentException] {
      AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 0,
        trainT0s = Seq(14), testT0 = 12, horizon = 2)
    }
  }

  test("confusion-matrix arithmetic") {
    val c = AccessPredictor.Confusion(Vector("Hot", "Cool"),
      Map((0, 0) -> 291L, (0, 1) -> 12L, (1, 0) -> 12L, (1, 1) -> 445L))
    assert(c.total == 760)
    assert(math.abs(c.accuracy - 736.0 / 760) < 1e-12)
    assert(c.f1(0) > 0.95 && c.f1(1) > 0.96) // the paper's F1 > 0.96 regime
  }

  /** `acc` with every read and write count in the months `touched` changed. */
  private def perturbed(touched: Int => Boolean): EnterpriseSim.Account = {
    def bump(xs: IndexedSeq[Double]) =
      xs.zipWithIndex.map { case (x, m) => if (touched(m)) 3 * x + 40 else x }
    acc.copy(datasets = acc.datasets.map(d => d.copy(reads = bump(d.reads), writes = bump(d.writes))))
  }

  /** `labelled` at `t0` as (features by dataset, label by dataset). */
  private def labelledRows(a: EnterpriseSim.Account, t0: Int): (Map[Int, Seq[Double]], Map[Int, Int]) = {
    val cols = TierFeatures.featureCols()
    val rows = AccessPredictor.labelled(TierFeatures.accessLogDF(spark, a), a, CostModel.hotCool, 0, t0,
      horizon = 2, AccessPredictor.Lags)
      .select("dataset_id", cols :+ "label": _*).collect()
    (rows.map(r => r.getInt(0) -> (1 to cols.size).map(r.getDouble)).toMap,
      rows.map(r => r.getInt(0) -> r.getDouble(cols.size + 1).toInt).toMap)
  }

  test("labelled() joins features with the ideal-tier label without leakage") {
    val t0 = 12
    val ideal = AccessPredictor.idealTiers(_: EnterpriseSim.Account, CostModel.hotCool, 0, t0, 2)
    val (feats, labels) = labelledRows(acc, t0)
    assert(feats.keySet == acc.datasets.map(_.id).toSet)
    assert(labels == ideal(acc))

    // Months >= t0 change the label but not one feature.
    val future = perturbed(_ >= t0)
    val (laterFeats, laterLabels) = labelledRows(future, t0)
    assert(laterFeats == feats)
    assert(laterLabels == ideal(future))
    assert(ideal(future) != ideal(acc))

    // The month before t0 is a feature.
    assert(labelledRows(perturbed(_ == t0 - 1), t0)._1 != feats)
  }

  private def rejects(arg: String)(call: => Any): Unit = {
    val e = intercept[IllegalArgumentException](call)
    assert(e.getMessage.contains(arg), e.getMessage)
  }

  test("trainEval rejects empty trainT0s") {
    rejects("trainT0s") {
      AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 0, trainT0s = Nil, testT0 = 14, horizon = 2)
    }
  }

  test("trainEval rejects a hotIdx outside the tiers") {
    rejects("hotIdx") {
      AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 2, trainT0s = Seq(12), testT0 = 14, horizon = 2)
    }
  }

  test("trainEval rejects horizon < 1") {
    rejects("horizon") {
      AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 0, trainT0s = Seq(12), testT0 = 14, horizon = 0)
    }
  }
}
