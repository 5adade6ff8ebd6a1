package repro.tiering

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}

class TierFeaturesSpec extends AnyFunSuite with SparkSpec {

  private lazy val acc = EnterpriseSim.account("t", nDatasets = 40, totalPB = 0.01,
    nMonths = 12, seed = 95)
  private lazy val log = TierFeatures.accessLogDF(spark, acc).cache()

  override def afterAll(): Unit = try log.unpersist() finally super.afterAll()

  test("access log has one row per (dataset, month)") {
    assert(log.count() == 40L * 12)
    assert(log.select("dataset_id").distinct().count() == 40)
  }

  test("featuresAt produces one row per dataset with the declared columns") {
    val f = TierFeatures.featuresAt(log, t0 = 8, lags = 6)
    assert(f.count() == 40)
    assert(f.columns.toSet == (Set("dataset_id") ++ TierFeatures.featureCols(6)))
  }

  test("lag columns pick exactly the right month (hand check)") {
    val ds = acc.datasets.head
    val f = TierFeatures.featuresAt(log, t0 = 8, lags = 3)
      .filter(col("dataset_id") === ds.id).collect().head
    assert(f.getAs[Double]("read_lag_1") == ds.reads(7))
    assert(f.getAs[Double]("read_lag_2") == ds.reads(6))
    assert(f.getAs[Double]("read_lag_3") == ds.reads(5))
    assert(f.getAs[Double]("write_lag_1") == ds.writes(7))
    assert(f.getAs[Double]("age_months") == (8 - ds.createdMonth).toDouble)
  }

  test("no temporal leakage: months >= t0 never influence the features") {
    // Distort the future: features at t0 must be identical.
    val t0 = 6
    val future = log.withColumn("reads",
      when(col("month") >= t0, col("reads") * 1000 + 7).otherwise(col("reads")))
    val a = TierFeatures.featuresAt(log, t0).orderBy("dataset_id").collect().toSeq
    val b = TierFeatures.featuresAt(future, t0).orderBy("dataset_id").collect().toSeq
    assert(a == b)
  }

  test("featuresAt agrees with DuckDB SQL (oracle)") {
    val t0 = 8
    val f = TierFeatures.featuresAt(log, t0, lags = 2)
      .select(col("dataset_id"), col("size_gb"), col("age_months"),
        col("read_lag_1"), col("read_lag_2"), col("write_lag_1"), col("write_lag_2"))
    val sql =
      s"""SELECT dataset_id,
         |       first(size_gb::DOUBLE) AS size_gb,
         |       ($t0 - first(created_month::INT))::DOUBLE AS age_months,
         |       sum(CASE WHEN month::INT = $t0 - 1 THEN reads::DOUBLE ELSE 0 END) AS read_lag_1,
         |       sum(CASE WHEN month::INT = $t0 - 2 THEN reads::DOUBLE ELSE 0 END) AS read_lag_2,
         |       sum(CASE WHEN month::INT = $t0 - 1 THEN writes::DOUBLE ELSE 0 END) AS write_lag_1,
         |       sum(CASE WHEN month::INT = $t0 - 2 THEN writes::DOUBLE ELSE 0 END) AS write_lag_2
         |FROM log
         |WHERE month::INT < $t0 AND month::INT >= $t0 - 2
         |GROUP BY dataset_id""".stripMargin
    Oracle.assertEquivalent(f, sql, "log" -> log)
  }

  test("featureCols ordering matches the lag naming") {
    assert(TierFeatures.featureCols(2) ==
      Seq("size_gb", "age_months", "read_lag_1", "write_lag_1", "read_lag_2", "write_lag_2"))
  }
}
