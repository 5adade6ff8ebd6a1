package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Scope
import repro.partition.{FileCatalog, GPartConfig}

/** The pipeline configs' lakes and settings, and the Tables IX–XI
  * formatter. Building a config's table specs plans DataFrames but starts
  * no Spark job.
  */
class ExpPipelineSpec extends AnyFunSuite with SparkSpec {
  import ExpPipeline.{enterpriseII, tpch100, tpch1t}

  private def lakeShape(cfg: ExpPipeline.Config): Vector[(String, Int)] =
    cfg.tables(spark, 0.01, cfg.filesPerBigTable).map(t => t.name -> t.nFiles)

  test("enterpriseII's lake: orders, customer and part in 24 files each") {
    assert(lakeShape(enterpriseII) == Vector("orders" -> 24, "customer" -> 24, "part" -> 24))
  }

  test("the TPC-H configs' lake: 8 tables in 162 files") {
    for (cfg <- Seq(tpch100, tpch1t)) {
      val shape = lakeShape(cfg)
      assert(shape == Vector("lineitem" -> 40, "orders" -> 20, "customer" -> 20, "part" -> 20,
        "supplier" -> 20, "partsupp" -> 40, "nation" -> 1, "region" -> 1), cfg.name)
      assert(shape.map(_._2).sum == 162)
    }
  }

  test("gpart: rho_c 3, rho_c' 50 x freqScale, S_thresh a twelfth of the rows (at least 1)") {
    assert(tpch100.gpart(1200) == GPartConfig(rhoC = 3.0, rhoCAbs = 2000.0, sThreshRows = 100))
    assert(enterpriseII.gpart(1210) == GPartConfig(rhoC = 3.0, rhoCAbs = 500.0, sThreshRows = 100))
    assert(tpch1t.gpart(5).sThreshRows == 1)
  }

  test("bytesScale: targetGB over the lake's measured GB") {
    val lake = Scope.DataLake(Vector.empty, FileCatalog(Vector(1L, 1L), Vector(5e8.toLong, 1.5e9.toLong)))
    assert(tpch100.bytesScale(lake) == 50.0)
    assert(tpch1t.bytesScale(lake) == 500.0)
    assert(enterpriseII.bytesScale(lake) == 0.75)
  }

  test("format: the title, the header, then one line per policy row with its [P, H, C] scheme") {
    val r = Scope.PolicyReport("Multi-Tiering", "Hermes", storageCost = 10.0, decompCost = 0.5,
      readCost = 2.0, readLatencySec = 0.0614, decompLatencyMs = 1.25,
      tierCounts = Map("Premium" -> 2, "Cool" -> 1))
    val lines = ExpPipeline.format("TPC-H 100GB", Seq(r))
    assert(lines.length == 3, lines.mkString("\n"))
    assert(lines(0) == "== TPC-H 100GB (costs in cents over 5.5 months) ==")
    assert(lines(1).split("\\s+").toSeq ==
      Seq("Variant", "Adapts", "Storage", "Decomp", "Read", "Total", "TTFB(s)", "Dec(ms)", "Scheme"))
    assert(lines(2).split("\\s+").toSeq ==
      Seq("Multi-Tiering", "Hermes", "10.0", "0.50", "2.0", "12.5", "0.061", "1.250", "[2,", "0,", "1]"))
    assert(lines(2).endsWith("  [2, 0, 1]"))
  }
}
