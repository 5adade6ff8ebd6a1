package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The remaining four TPC-H-lite tables, so the pipeline experiments run
  * over the paper's full 8-table TPC-H schema (lineitem, orders, customer,
  * part from [[SynthData]] plus supplier, partsupp, nation, region here).
  * Deterministic in (sf, seed), same conventions as [[SynthData]].
  */
object SynthDataExt {
  private val NSupplierPerSf = 10_000L
  private val NPartSuppPerSf = 800_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def supplier(spark: SparkSession, sf: Double = 0.01, seed: Long = 6): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NSupplierPerSf, sf) + 1).toDF("s_suppkey").select(
      $"s_suppkey",
      (rand(seed) * 25).cast(IntegerType)          as "s_nationkey",
      round(rand(seed + 1) * 11000 - 1000, 2)      as "s_acctbal",
      concat(lit("Supplier#"), lpad($"s_suppkey".cast(StringType), 9, "0")) as "s_name",
    )
  }

  def partsupp(spark: SparkSession, sf: Double = 0.01, seed: Long = 7): DataFrame = {
    val nPart = n(200_000L, sf); val nSupp = n(NSupplierPerSf, sf)
    spark.range(n(NPartSuppPerSf, sf)).select(
      (col("id") % nPart + 1).cast(LongType)            as "ps_partkey",
      (rand(seed) * nSupp + 1).cast(LongType)           as "ps_suppkey",
      (rand(seed + 1) * 9999 + 1).cast(IntegerType)     as "ps_availqty",
      round(rand(seed + 2) * 1000 + 1, 2)               as "ps_supplycost",
    )
  }

  def nation(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val names = Seq("ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
      "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
      "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
      "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES")
    names.zipWithIndex.map { case (nm, i) => (i.toLong, nm, (i % 5).toLong) }
      .toDF("n_nationkey", "n_name", "n_regionkey")
  }

  def region(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq((0L, "AFRICA"), (1L, "AMERICA"), (2L, "ASIA"), (3L, "EUROPE"), (4L, "MIDDLE EAST"))
      .toDF("r_regionkey", "r_name")
  }

  /** Zipf-skewed lineitem (the "TPC-H Skew" variant, skew factor ~alpha):
    * order and part keys are drawn from a power-law instead of uniform, so
    * value repetition — and hence compressibility — varies strongly across
    * query results.
    */
  def lineitemSkew(spark: SparkSession, sf: Double = 0.01, alpha: Double = 1.5,
                   seed: Long = 9): DataFrame = {
    val nOrders = n(1_500_000L, sf); val nPart = n(200_000L, sf)
    def zipfKey(maxKey: Long, s: Long) =
      least(lit(maxKey), greatest(lit(1L),
        pow(lit(1.0) / (rand(s) + 1e-9), lit(1.0 / alpha)).cast(LongType)))
    SynthData.lineitem(spark, sf, seed)
      .withColumn("l_orderkey", zipfKey(nOrders, seed + 20))
      .withColumn("l_partkey", zipfKey(nPart, seed + 21))
  }

  /** The full 8-table TPC-H-lite schema with a natural sort column per
    * table (used to range-split tables into files).
    */
  def allTables(spark: SparkSession, sf: Double): Vector[(String, DataFrame, String)] = Vector(
    ("lineitem", SynthData.lineitem(spark, sf), "l_orderkey"),
    ("orders",   SynthData.orders(spark, sf),   "o_orderkey"),
    ("customer", SynthData.customer(spark, sf), "c_custkey"),
    ("part",     SynthData.part(spark, sf),     "p_partkey"),
    ("supplier", supplier(spark, sf),           "s_suppkey"),
    ("partsupp", partsupp(spark, sf),           "ps_partkey"),
    ("nation",   nation(spark),                 "n_nationkey"),
    ("region",   region(spark),                 "r_regionkey"),
  )
}
