package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpCompredict

/** Table VII: compression-ratio prediction on "TPC-H 100GB" (uniform
  * stand-in) and TPC-H Skew. Table VIII: decompression (sec/GB) prediction
  * on the same datasets. Schemes: gzip (CSV) and parquet+gzip (columnar).
  */
class TableVII_VIIIBench extends AnyFunSuite with BenchBase {

  // paper (model -> (gzip MAPE, parquet+gzip MAPE)) per dataset, ratio target
  private val paperVII = Map(
    "TPC-H 100GB" -> Map("Averaging" -> (2.378, 8.795), "XGBoost*" -> (2.838, 3.751),
      "SVR*" -> (3.077, 4.765), "Random Forest" -> (2.151, 3.369)),
    "TPC-H Skew" -> Map("Averaging" -> (4.915, 32.491), "XGBoost*" -> (2.467, 6.145),
      "SVR*" -> (4.280, 8.526), "Random Forest" -> (3.005, 12.127)),
  )
  // paper MAPEs for decompression sec/GB (Table VIII)
  private val paperVIII = Map(
    "TPC-H 100GB" -> Map("Averaging" -> (3.732, 43.472), "XGBoost*" -> (1.773, 10.168),
      "SVR*" -> (2.153, 10.152), "Random Forest" -> (1.601, 9.698)),
    "TPC-H Skew" -> Map("Averaging" -> (29.979, 125.23), "XGBoost*" -> (6.145, 12.284),
      "SVR*" -> (15.568, 19.508), "Random Forest" -> (4.910, 7.983)),
  )

  private def show(tag: String, what: String, rows: Vector[ExpCompredict.GridRow],
                   paper: Map[String, (Double, Double)]): Unit = {
    println(s"-- $tag: $what --")
    println(f"${"Model"}%-15s ${"Scheme"}%-16s ${"paperMAPE"}%9s | ${"MAE"}%8s ${"MAPE"}%8s ${"R2"}%7s")
    rows.foreach { r =>
      val pm = paper.get(r.model).map { case (g, p) =>
        f"${if (r.scheme == "gzip") g else p}%9.3f"
      }.getOrElse("        -")
      println(f"${r.model}%-15s ${r.scheme}%-16s $pm | ${r.m.mae}%8.3f ${r.m.mape}%8.3f ${r.m.r2}%7.3f")
    }
  }

  private def shapeChecks(rows: Vector[ExpCompredict.GridRow], tag: String): Unit = {
    for (scheme <- Seq("gzip", "parquet+gzip")) {
      val byModel = rows.filter(_.scheme == scheme).map(r => r.model -> r.m).toMap
      val learnedBest = Seq("XGBoost*", "SVR*", "Random Forest").map(byModel(_).mape).min
      assert(learnedBest < byModel("Averaging").mape,
        s"$tag/$scheme: learning must beat the naive mean")
    }
  }

  test("Tables VII and VIII: uniform (100GB stand-in) and Zipf-skew datasets") {
    for (skew <- Seq(false, true)) {
      val tag = if (skew) "TPC-H Skew" else "TPC-H 100GB"
      banner(if (skew) "Tables VII-VIII (skew)" else "Tables VII-VIII (uniform)",
        s"$tag at SF=$sf (see DESIGN.md scale substitution)")
      val (ratio, dec) = ExpCompredict.tableVII_VIII(spark, sf, skew)
      show(tag, "compression ratio (Table VII)", ratio, paperVII(tag))
      show(tag, "decompression sec/GB (Table VIII)", dec, paperVIII(tag))
      shapeChecks(ratio, s"$tag ratio")
      shapeChecks(dec, s"$tag decomp")
      // ratio on queried samples is highly predictable in both regimes
      val rfRatio = ratio.filter(_.model == "Random Forest")
      assert(rfRatio.forall(_.m.r2 > 0.5), s"$tag: RF ratio R2 ${rfRatio.map(_.m.r2)}")
    }
  }
}
