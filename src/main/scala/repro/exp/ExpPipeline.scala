package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.Scope
import repro.partition.GPartConfig

/** Harnesses for the full-pipeline experiments (Tables IX–XI): build a
  * lake, run all 11 policy variants, and format the paper-style rows.
  * All costs are over a 5.5-month horizon with Azure Premium/Hot/Cool
  * parameters, as in the paper.
  */
object ExpPipeline {

  val Months = 5.5

  /** Configuration of one pipeline experiment.
    *
    * @param tables the lake's tables at a scale factor, given the config's
    *               `filesPerBigTable`
    */
  final case class Config(name: String, filesPerBigTable: Int, familiesPerTable: Int,
                          zipfAlpha: Double, freqScale: Double, targetGB: Double,
                          sampleCap: Int, seed: Long,
                          tables: (SparkSession, Double, Int) => Vector[Scope.TableSpec]) {

    /** G-PART's settings for a lake of `totalRows` rows. */
    def gpart(totalRows: Long): GPartConfig =
      GPartConfig(rhoC = 3.0, rhoCAbs = 50.0 * freqScale, sThreshRows = math.max(1L, totalRows / 12))

    /** The multiplier from `lake`'s measured bytes to `targetGB`. */
    def bytesScale(lake: Scope.DataLake): Double = targetGB / (lake.catalog.bytes.sum / 1e9)
  }

  /** Enterprise II's lake: three size-balanced TPC-H-lite tables (~1.5 GB
    * in all after scaling), like the paper's three-table enterprise set,
    * each split into `nFiles` files.
    */
  def enterpriseTables(spark: SparkSession, sf: Double, nFiles: Int): Vector[Scope.TableSpec] =
    Vector(
      Scope.TableSpec("orders", repro.SynthData.orders(spark, sf), "o_orderkey", nFiles),
      Scope.TableSpec("customer", repro.SynthData.customer(spark, sf * 10), "c_custkey", nFiles),
      Scope.TableSpec("part", repro.SynthData.part(spark, sf * 6), "p_partkey", nFiles),
    )

  /** The TPC-H lake: all 8 tables. lineitem and partsupp get `bigFiles`
    * files, nation and region one, and the rest half of `bigFiles` (at
    * least 2).
    */
  def tpchTables(spark: SparkSession, sf: Double, bigFiles: Int): Vector[Scope.TableSpec] =
    repro.SynthDataExt.allTables(spark, sf).map { case (name, df, sortCol) =>
      val nFiles = name match {
        case "lineitem" | "partsupp" => bigFiles
        case "nation" | "region"     => 1
        case _                       => math.max(2, bigFiles / 2)
      }
      Scope.TableSpec(name, df, sortCol, nFiles)
    }

  /** Table IX: "Enterprise Data II" — 3 tables, ~1.5 GB total, Zipf-like
    * (power-law) query workload, exactly the paper's setup for that data.
    */
  val enterpriseII: Config =
    Config("Enterprise Data II", filesPerBigTable = 24, familiesPerTable = 12,
      zipfAlpha = 1.0, freqScale = 10.0, targetGB = 1.5, sampleCap = 2000, seed = 301,
      enterpriseTables)

  /** Table X: TPC-H 100 GB — 8 tables, uniform workload. */
  val tpch100: Config =
    Config("TPC-H 100GB", filesPerBigTable = 40, familiesPerTable = 20,
      zipfAlpha = 0.0, freqScale = 40.0, targetGB = 100.0, sampleCap = 2000, seed = 302,
      tpchTables)

  /** Table XI: TPC-H 1 TB — same lake, 10x the volume, richer workload. */
  val tpch1t: Config =
    Config("TPC-H 1TB", filesPerBigTable = 40, familiesPerTable = 30,
      zipfAlpha = 0.0, freqScale = 40.0, targetGB = 1000.0, sampleCap = 2000, seed = 303,
      tpchTables)

  /** Builds the lake for a config. `sf` controls the physical rows generated
    * (the jobs read it from REPRO_SF: 0.1 by default, 0.01 for quick runs);
    * costs are scaled to `targetGB`.
    */
  def buildLake(spark: SparkSession, cfg: Config, sf: Double): Scope.DataLake =
    Scope.buildLake(cfg.tables(spark, sf, cfg.filesPerBigTable))

  /** Runs all 11 policy variants for one config. */
  def run(spark: SparkSession, cfg: Config, sf: Double): Vector[Scope.PolicyReport] = {
    val lake = buildLake(spark, cfg, sf)
    Scope.runAll(lake, cfg.familiesPerTable, cfg.zipfAlpha, cfg.freqScale, cfg.bytesScale(lake),
      Months, cfg.gpart(lake.catalog.rows.sum), cfg.sampleCap, cfg.seed)
  }

  /** Tables IX–XI: a title, the header, then one line per policy row. */
  def format(cfgName: String, reports: Seq[Scope.PolicyReport]): Vector[String] = {
    val header = f"${"Variant"}%-36s ${"Adapts"}%-20s ${"Storage"}%10s ${"Decomp"}%8s " +
      f"${"Read"}%10s ${"Total"}%10s ${"TTFB(s)"}%8s ${"Dec(ms)"}%9s  Scheme"
    val lines = reports.map { r =>
      f"${r.label}%-36s ${r.adapts}%-20s ${r.storageCost}%10.1f ${r.decompCost}%8.2f " +
        f"${r.readCost}%10.1f ${r.totalCost}%10.1f ${r.readLatencySec}%8.3f " +
        f"${r.decompLatencyMs}%9.3f  ${r.scheme(Seq("Premium", "Hot", "Cool"))}"
    }
    (s"== $cfgName (costs in cents over $Months months) ==" +: header +: lines).toVector
  }
}
