package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Assignment, CostModel}
import repro.exp.ExpTiering
import repro.tiering.{EnterpriseSim, Tiering}

/** Table III: confusion matrix of the RF tier predictor vs the ideal tier
  * (Hot/Cool, 2-month horizon, ~760 datasets / ~0.7 PB, out-of-time).
  * Table IV: OptAssign (predicted/known) vs intuitive caching baselines.
  */
class TableIII_IVBench extends AnyFunSuite with BenchBase {

  private lazy val tables = ExpTiering.tableIII_IV(spark)
  /** The job's lines: Table III's, then after a blank line Table IV's. */
  private lazy val (tableIII, tableIV) = {
    val (iii, iv) = ExpTiering.formatIII_IV(tables).span(_.nonEmpty)
    (iii, iv.tail)
  }

  test("Table III: predicted vs ideal tier confusion matrix") {
    banner("Table III", "RF tier prediction, out-of-time, 760 datasets (~0.7 PB), 2-month horizon")
    val conf = tables.confusion
    val p = Vector(Vector(291, 12), Vector(12, 445))
    printBeside(("paper:" +: p.map(_.map(v => f"$v%6d").mkString(" "))) :+ "accuracy=0.968 F1>0.96",
      tableIII)
    assert(conf.total == 760)
    assert(conf.accuracy > 0.93, "paper regime: near-optimal prediction")
    assert(conf.macroF1 > 0.9)
  }

  test("Table IV: OptAssign vs intuitive baselines") {
    banner("Table IV", "% benefit over all-Hot; same storage account as Table III")
    val paper = Vector(
      ("All hot", "N/A", 2, 0.0),
      ("\"Hot\" if data accessed in last 2 mos", "N/A", 4, 2.67),
      ("\"Hot\" if data accessed in last 1 mo", "N/A", 4, 3.25),
      ("Use optimal tier of prev. month", "N/A", 2, 5.07),
      ("OptAssign (Hot, Cool)", "Predicted", 2, 9.570),
      ("OptAssign (Hot, Cool)", "Predicted", 4, 13.58),
      ("OptAssign (Hot, Cool)", "Known", 2, 9.574),
      ("OptAssign (Hot, Cool)", "Known", 4, 13.62),
      ("OptAssign (Hot, Cool)", "Known", 6, 15.39),
      ("OptAssign (Hot, Cool, Archive)", "Known", 6, 43.8),
    )
    val rows = tables.tableIV
    rows.zip(paper).foreach { case (r, (m, a, mo, _)) =>
      assert(r.model == m && r.accessInfo == a && r.months == mo)
    }
    printBeside("paper %" +: paper.map { case (_, _, _, pb) => f"$pb%7.2f" }, tableIV)
    def b(model: String, info: String, mo: Int) =
      rows.find(r => r.model == model && r.accessInfo == info && r.months == mo).get.benefitPct
    // Shape: caching rules << OptAssign; predicted ~ known; Archive largest.
    assert(math.abs(b("All hot", "N/A", 2)) < 1e-9)
    val bestCache = Seq(b("\"Hot\" if data accessed in last 2 mos", "N/A", 4),
      b("\"Hot\" if data accessed in last 1 mo", "N/A", 4)).max
    assert(b("OptAssign (Hot, Cool)", "Known", 4) > bestCache + 1)
    assert(b("OptAssign (Hot, Cool)", "Predicted", 2) > 0.8 * b("OptAssign (Hot, Cool)", "Known", 2))
    assert(b("OptAssign (Hot, Cool, Archive)", "Known", 6) >
      1.5 * b("OptAssign (Hot, Cool)", "Known", 6))
    // The 2-month Predicted row bills Table III's tiers.
    val acc = EnterpriseSim.tableIIIAccount()
    val known = Tiering.knownAccesses(acc, ExpTiering.T0 + 2, 2)
    val plan = acc.datasets.map(ds => Assignment(ds.id, tables.predictedTiers(ds.id), 0))
    assert(b("OptAssign (Hot, Cool)", "Predicted", 2) ==
      Tiering.benefitPct(Tiering.instance(acc, CostModel.hotCool, 0, 2, known), plan, known))
  }
}
