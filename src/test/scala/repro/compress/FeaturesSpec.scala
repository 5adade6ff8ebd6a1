package repro.compress

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}

class FeaturesSpec extends AnyFunSuite with SparkSpec {

  private val schema = StructType(Seq(
    StructField("k", LongType), StructField("name", StringType), StructField("v", DoubleType)))

  test("dtype bucketing matches the paper's (int/float/object/date) universe") {
    assert(Features.dtypeOf(LongType) == "int")
    assert(Features.dtypeOf(IntegerType) == "int")
    assert(Features.dtypeOf(DoubleType) == "float")
    assert(Features.dtypeOf(DecimalType(10, 2)) == "float")
    assert(Features.dtypeOf(StringType) == "object")
    assert(Features.dtypeOf(DateType) == "date")
    assert(Features.dtypeOf(TimestampType) == "date")
  }

  test("weighted entropy of a constant column is 0 (pr = 1 -> log 1 = 0)") {
    val rows = Vector.fill(10)(Row(1L, "same", 2.0))
    val h = Features.weightedEntropyLocal(rows, schema)
    assert(math.abs(h("object")) < 1e-12)
  }

  test("weighted entropy matches the hand-computed H(P,d) on a 2-value column") {
    // object column: "aa" x 3, "b" x 1 -> H = -(2 * 0.75 * ln 0.75 + 1 * 0.25 * ln 0.25)
    val rows = Vector(Row(1L, "aa", 0.0), Row(1L, "aa", 0.0), Row(1L, "aa", 0.0), Row(1L, "b", 0.0))
    val h = Features.weightedEntropyLocal(rows, schema)
    val expected = -(2 * 0.75 * math.log(0.75) + 1 * 0.25 * math.log(0.25))
    assert(math.abs(h("object") - expected) < 1e-12)
  }

  test("weighted entropy pools all columns of the same datatype") {
    val twoStr = StructType(Seq(StructField("a", StringType), StructField("b", StringType)))
    val rows = Vector(Row("x", "y"))
    // values: x (pr 0.5), y (pr 0.5); each len 1 -> H = -2 * 0.5 * ln 0.5... summed over distinct
    val expected = -(1 * 0.5 * math.log(0.5)) * 2
    assert(math.abs(Features.weightedEntropyLocal(rows, twoStr)("object") - expected) < 1e-12)
  }

  test("more repetition means lower weighted entropy (Fig 4 driver)") {
    val repetitive = (1 to 100).map(_ => Row(1L, s"cat-${1}", 0.5)).toVector
    val diverse    = (1 to 100).map(i => Row(1L, s"cat-$i", 0.5)).toVector
    val hRep = Features.weightedEntropyLocal(repetitive, schema)("object")
    val hDiv = Features.weightedEntropyLocal(diverse, schema)("object")
    assert(hRep < hDiv)
  }

  test("weightedEntropyLocal agrees with a distributed computation") {
    import spark.implicits._
    val data = (1 to 500).map(i => (i.toLong % 13, s"name-${i % 5}", (i % 7).toDouble))
    val df = data.toDF("k", "name", "v")
    val dfH = FeaturesReference.weightedEntropy(df)
    val localH = Features.weightedEntropyLocal(
      data.map { case (a, b, c) => Row(a, b, c) }.toVector, df.schema.asInstanceOf[StructType])
    for (d <- Seq("int", "object", "float"))
      assert(math.abs(dfH(d) - localH(d)) < 1e-6, s"dtype $d: ${dfH(d)} vs ${localH(d)}")
  }

  test("the DF value-count aggregation behind entropy matches DuckDB (oracle)") {
    import spark.implicits._
    val df = (1 to 300).map(i => (s"v${i % 9}", i)).toDF("v", "x")
    val counts = df.groupBy($"v").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(counts, "SELECT v, count(*) AS cnt FROM t GROUP BY v", "t" -> df)
  }

  test("featureVector aligns entropies to the fixed dtype universe") {
    val v = Features.featureVector(1000L, 10L, Map("object" -> 2.5))
    assert(v.length == 2 + Features.dtypeUniverse.length)
    assert(v(0) == 1000.0 && v(1) == 10.0)
    assert(v(2 + Features.dtypeUniverse.indexOf("object")) == 2.5)
    assert(v(2 + Features.dtypeUniverse.indexOf("int")) == 0.0)
  }

  test("sizeOnlyVector carries just the naive features") {
    assert(Features.sizeOnlyVector(5L, 2L).toSeq == Seq(5.0, 2.0))
  }

  test("null values are bucketed as empty strings, not dropped") {
    val rows = Vector(Row(1L, null, 0.0), Row(1L, "x", 0.0))
    val h = Features.weightedEntropyLocal(rows, schema)
    // values: "" (len 0) and "x" (len 1), each pr 0.5 -> only "x" contributes
    assert(math.abs(h("object") - (-0.5 * math.log(0.5))) < 1e-12)
  }
}
