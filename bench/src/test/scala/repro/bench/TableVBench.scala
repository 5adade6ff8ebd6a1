package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpCompredict

/** Table V: COMPREDICT sampling-strategy and feature ablation — random-row
  * vs query-result samples x size vs weighted-entropy features, Random
  * Forest, gzip on row (CSV) layout.
  */
class TableVBench extends AnyFunSuite with BenchBase {

  // (target, training data, features, MAE, MAPE, R2) — paper values
  private val paper = Vector(
    ("Compression Ratio", "Random Samples", "Weighted Entropy", 1.022, 72.188, -0.656),
    ("Compression Ratio", "Queries", "Size", 0.049, 3.013, 0.995),
    ("Compression Ratio", "Queries", "Weighted Entropy", 0.021, 0.527, 0.988),
    ("Decompression Speed", "Random Samples", "Weighted Entropy", 18.713, 268.627, 0.069),
    ("Decompression Speed", "Queries", "Size", 2.398, 5.555, 0.792),
    ("Decompression Speed", "Queries", "Weighted Entropy", 0.254, 1.215, 0.989),
  )

  test("Table V: training data and feature ablation (gzip, Random Forest)") {
    banner("Table V", "Prediction quality by sample source and feature set (gzip on CSV layout, RF)")
    val rows = ExpCompredict.tableV(spark, sf)
    rows.zip(paper).foreach { case (r, (t, d, f, _, _, _)) =>
      assert(r.target == t && r.trainingData == d && r.features == f)
    }
    printBeside(f"${"pMAE"}%7s ${"pMAPE"}%8s ${"pR2"}%7s" +:
      paper.map { case (_, _, _, pm, pp, pr) => f"$pm%7.3f $pp%8.3f $pr%7.3f" },
      ExpCompredict.formatV(rows))
    def m(t: String, d: String, f: String) =
      rows.find(r => r.target == t && r.trainingData == d && r.features == f).get.m
    // Shape: query-based samples beat random samples for predicting the
    // compression behaviour of queried data; entropy features are at least
    // competitive with size features.
    val ratioRandom = m("Compression Ratio", "Random Samples", "Weighted Entropy")
    val ratioQ      = m("Compression Ratio", "Queries", "Weighted Entropy")
    assert(ratioQ.mape < ratioRandom.mape, "query sampling must beat random sampling (ratio)")
    assert(ratioQ.r2 > 0.7, s"queries + entropy must predict ratio well: $ratioQ")
    val decQ = m("Decompression Speed", "Queries", "Weighted Entropy")
    val decRandom = m("Decompression Speed", "Random Samples", "Weighted Entropy")
    assert(decQ.mape < decRandom.mape, "query sampling must beat random sampling (decomp)")
  }
}
