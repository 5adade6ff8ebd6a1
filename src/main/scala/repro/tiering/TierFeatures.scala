package repro.tiering

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame feature engineering for the access-pattern predictor
  * (Section IV-C): from a long-format access log, build per-dataset
  * features at prediction time t0 — dataset size, months since creation,
  * and aggregated monthly read/write counts for the last `lags` months —
  * exactly the paper's feature list.
  */
object TierFeatures {

  /** Long-format access log: one row per (dataset, month). */
  def accessLogDF(spark: SparkSession, acc: EnterpriseSim.Account): DataFrame = {
    import spark.implicits._
    acc.datasets.flatMap { ds =>
      (0 until acc.nMonths).map(m => (ds.id, ds.sizeGB, ds.createdMonth, m, ds.reads(m), ds.writes(m)))
    }.toDF("dataset_id", "size_gb", "created_month", "month", "reads", "writes")
  }

  /** Feature matrix at month t0: one row per dataset with size, age and the
    * last `lags` monthly read/write counts (read_lag_1 = month t0-1, ...).
    * Pure Catalyst: filter + pivot-style conditional aggregation.
    */
  def featuresAt(log: DataFrame, t0: Int, lags: Int = AccessPredictor.Lags): DataFrame = {
    val lagCols = (1 to lags).flatMap { k =>
      Seq(
        sum(when(col("month") === t0 - k, col("reads")).otherwise(0.0)) as s"read_lag_$k",
        sum(when(col("month") === t0 - k, col("writes")).otherwise(0.0)) as s"write_lag_$k",
      )
    }
    log
      .filter(col("month") < t0 && col("month") >= t0 - lags)
      .groupBy(col("dataset_id"))
      .agg(
        first(col("size_gb")) as "size_gb",
        (Seq((lit(t0) - first(col("created_month"))).cast("double") as "age_months") ++ lagCols): _*
      )
  }

  /** Feature column names produced by [[featuresAt]] (model input order). */
  def featureCols(lags: Int = AccessPredictor.Lags): Seq[String] =
    Seq("size_gb", "age_months") ++
      (1 to lags).flatMap(k => Seq(s"read_lag_$k", s"write_lag_$k"))
}
