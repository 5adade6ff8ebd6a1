package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.{Assignment, CostModel}
import repro.tiering.{EnterpriseSim, Tiering}

class ExpTieringSpec extends AnyFunSuite with SparkSpec {

  private lazy val tables = ExpTiering.tableIII_IV(spark)

  test("Table II harness: positive benefits, 6-month (with Archive) beats 2-month") {
    val rows = ExpTiering.tableII()
    assert(rows.length == 4)
    rows.foreach { r =>
      assert(r.benefit2mo > 0, s"${r.customer}: 2-month benefit must be positive")
      assert(r.benefit6mo > r.benefit2mo,
        s"${r.customer}: 6-month horizon with Archive must dominate (paper: 50-83% vs 8-12%)")
      assert(r.benefit6mo < 100)
    }
    // paper's headline: 6-month benefits in the ~50-83% band; ours should be large too
    assert(rows.map(_.benefit6mo).min > 30)
  }

  test("Table IV harness: OptAssign dominates caching baselines; Archive and horizon help") {
    val rows = tables.tableIV
    def benefit(model: String, info: String, months: Int): Double =
      rows.find(r => r.model == model && r.accessInfo == info && r.months == months).get.benefitPct

    assert(math.abs(benefit("All hot", "N/A", 2)) < 1e-9)
    val cache2 = benefit("\"Hot\" if data accessed in last 2 mos", "N/A", 4)
    val cache1 = benefit("\"Hot\" if data accessed in last 1 mo", "N/A", 4)
    val known4 = benefit("OptAssign (Hot, Cool)", "Known", 4)
    val known2 = benefit("OptAssign (Hot, Cool)", "Known", 2)
    val known6 = benefit("OptAssign (Hot, Cool)", "Known", 6)
    val pred2  = benefit("OptAssign (Hot, Cool)", "Predicted", 2)
    val pred4  = benefit("OptAssign (Hot, Cool)", "Predicted", 4)
    val arch6  = benefit("OptAssign (Hot, Cool, Archive)", "Known", 6)

    assert(known4 > cache2 && known4 > cache1, "OptAssign must beat the caching rules")
    // The paper's benefit grows with horizon (9.57 -> 13.58 -> 15.39); ours
    // must at least not collapse (seasonal peaks can cause small dips).
    assert(known6 > known2 * 0.9 && known4 >= known2 - 1e-9,
      s"benefit must hold up with horizon: $known2 / $known4 / $known6")
    assert(pred2 <= known2 + 1e-9 && pred4 <= known4 + 1e-9, "prediction cannot beat hindsight")
    assert(pred2 > known2 * 0.8, "predictions should be near the known-optimal (paper: 9.570 vs 9.574)")
    assert(arch6 > known6, "the Archive tier adds substantial benefit (paper: 43.8% vs 15.39%)")

    // The 2-month Predicted row bills the tiers Table III predicted.
    val acc   = EnterpriseSim.tableIIIAccount()
    val known = Tiering.knownAccesses(acc, ExpTiering.T0 + 2, 2)
    val plan  = acc.datasets.map(ds => Assignment(ds.id, tables.predictedTiers(ds.id), 0))
    assert(pred2 == Tiering.benefitPct(Tiering.instance(acc, CostModel.hotCool, 0, 2, known), plan, known))
  }

  test("Table III harness: high-accuracy confusion matrix on the 760-dataset account") {
    val conf = tables.confusion
    assert(conf.total == 760)
    assert(conf.accuracy > 0.9, s"accuracy ${conf.accuracy} (paper: 736/760 = 0.968)")
    assert(conf.macroF1 > 0.85, s"macroF1 ${conf.macroF1} (paper: F1 > 0.96)")
    assert(tables.predictedTiers.size == EnterpriseSim.tableIIIAccount().datasets.length)
  }

  test("Tables III and IV formatter: the matrix and its scores, a blank line, then Table IV") {
    val lines = ExpTiering.formatIII_IV(tables)
    val conf  = tables.confusion
    val n     = conf.labels.length
    assert(lines.length == n + 4 + tables.tableIV.length, lines.mkString("\n"))
    assert(lines.head.endsWith(s"labels=${conf.labels.mkString(",")}"), lines.head)
    for (p <- conf.labels.indices)
      assert(lines(1 + p).trim.split("\\s+").toSeq == conf.labels.indices.map(i => conf(p, i).toString))
    assert(lines(1 + n) == f"accuracy=${conf.accuracy}%.4f macroF1=${conf.macroF1}%.4f")
    assert(lines(2 + n).isEmpty)
    assert(lines(3 + n).split("\\s+").toSeq == Seq("Model", "Access", "Months", "Benefit"))
    for ((line, r) <- lines.drop(4 + n).zip(tables.tableIV)) {
      assert(line.startsWith(r.model), line)
      assert(line.drop(r.model.length).trim.split("\\s+").toSeq ==
        Seq(r.accessInfo, r.months.toString, f"${r.benefitPct}%.2f%%"), line)
    }
  }
}
