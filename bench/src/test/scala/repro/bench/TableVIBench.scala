package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpCompredict

/** Table VI: compression-ratio prediction across the model zoo and the five
  * (layout, codec) schemes, on the uniform dataset.
  */
class TableVIBench extends AnyFunSuite with BenchBase {

  // paper MAPE per (model, scheme) — the headline comparison metric
  private val paperMape: Map[(String, String), Double] = Map(
    ("Averaging", "gzip") -> 5.353, ("Averaging", "snappy") -> 3.315,
    ("Averaging", "parquet+gzip") -> 23.154, ("Averaging", "parquet+snappy") -> 20.101,
    ("Averaging", "parquet+lz4") -> 19.494,
    ("XGBoost*", "gzip") -> 0.851, ("XGBoost*", "snappy") -> 0.733,
    ("XGBoost*", "parquet+gzip") -> 1.482, ("XGBoost*", "parquet+snappy") -> 1.305,
    ("XGBoost*", "parquet+lz4") -> 1.206,
    ("SVR*", "gzip") -> 1.920, ("SVR*", "snappy") -> 3.049,
    ("SVR*", "parquet+gzip") -> 2.633, ("SVR*", "parquet+snappy") -> 3.477,
    ("SVR*", "parquet+lz4") -> 3.632,
    ("Random Forest", "gzip") -> 0.527, ("Random Forest", "snappy") -> 0.453,
    ("Random Forest", "parquet+gzip") -> 0.996, ("Random Forest", "parquet+snappy") -> 0.948,
    ("Random Forest", "parquet+lz4") -> 0.901,
  )

  test("Table VI: ratio prediction for models x schemes") {
    banner("Table VI",
      "Compression-ratio prediction (queries + weighted entropy). XGBoost* = MLlib GBT, " +
        "SVR* = MLlib linear regression (see DESIGN.md substitutions); paper's MLP omitted " +
        "(no MLlib MLP regressor).")
    val rows = ExpCompredict.tableVI(spark, sf)
    println(f"${"Model"}%-15s ${"Scheme"}%-16s ${"paperMAPE"}%9s | ${"MAE"}%7s ${"MAPE"}%8s ${"R2"}%7s")
    rows.foreach { r =>
      val pm = paperMape.get((r.model, r.scheme)).map(v => f"$v%9.3f").getOrElse("        -")
      println(f"${r.model}%-15s ${r.scheme}%-16s $pm | ${r.m.mae}%7.3f ${r.m.mape}%8.3f ${r.m.r2}%7.3f")
    }
    // Shape: for every scheme the learned models beat the Averaging baseline
    // on MAPE, and Random Forest is competitive (within 2x of the best).
    for (scheme <- ExpCompredict.schemeGrid.map(_._1)) {
      val byModel = rows.filter(_.scheme == scheme).map(r => r.model -> r.m).toMap
      val avg = byModel("Averaging").mape
      val learned = Seq("XGBoost*", "SVR*", "Random Forest").map(byModel(_).mape)
      assert(learned.min < avg, s"$scheme: learned models must beat averaging")
      assert(byModel("Random Forest").mape < 2.5 * learned.min + 1.0,
        s"$scheme: RF must be competitive")
      assert(byModel("Random Forest").r2 > 0.6, s"$scheme: RF R2")
    }
  }
}
