package repro.compress

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, SynthData}
import repro.compress.Sampling.{EqQuery, RangeQuery}

/** `Sampling.generateQueries`, `Sampling.querySamples`,
  * `ComPredict.examplesByCodec` and `ComPredict.trainPredictor` against
  * `SamplingReference`, the per-column aggregations, per-query
  * `filter(p).limit(n)` scans, per-codec example builds and sequential
  * per-codec fits: the same queries, the same sample row sequences, the same
  * examples and the same predictions.
  */
class SamplingDifferentialSpec extends AnyFunSuite with SparkSpec {

  // 12,000 rows over 8 cached partitions, so query results span partitions.
  private lazy val lineitem = cached(SynthData.lineitem(spark, sf = 0.002, seed = 31).repartition(8))
  private lazy val orders   = cached(SynthData.orders(spark, sf = 0.005, seed = 32))

  private def cached(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    c
  }

  private def assertSameSamples(df: DataFrame, qs: Seq[Sampling.QuerySpec], cap: Int): Unit = {
    val got  = Sampling.querySamples(df, qs, cap)
    val want = SamplingReference.querySamples(df, qs, cap)
    assert(got.map(_.tag) == want.map(_.tag), s"cap $cap")
    assert(got.map(_.schema) == want.map(_.schema))
    got.zip(want).foreach { case (g, w) => assert(g.rows == w.rows, s"${g.tag} at cap $cap") }
  }

  /** Runs `f` under a job group and counts the Spark jobs it started. A
    * marker job in another group flushes the listener bus: it is FIFO, so
    * once the marker is seen, so are the jobs before it.
    */
  private def jobsOf[T](f: => T): (T, Int) = {
    val jobs   = new AtomicInteger
    val marker = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some("sampling-counted") => jobs.incrementAndGet()
          case Some("sampling-marker")  => marker.incrementAndGet()
          case _                        =>
        }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("sampling-counted", "counted")
      val out = f
      sc.setJobGroup("sampling-marker", "marker")
      sc.parallelize(Seq(1)).count()
      eventually(timeout(30.seconds)) { assert(marker.get == 1) }
      (out, jobs.get)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("generateQueries returns the reference's queries") {
    for (df <- Seq(lineitem, orders); seed <- Seq(3L, 4L, 5L)) {
      val got = Sampling.generateQueries(df, 25, seed)
      assert(got == SamplingReference.generateQueries(df, 25, seed))
    }
    val numeric = orders.select("o_orderkey", "o_custkey", "o_totalprice")
    assert(Sampling.generateQueries(numeric, 10, 6) == SamplingReference.generateQueries(numeric, 10, 6))
  }

  test("querySamples returns the reference's row sequences across partitions") {
    assert(lineitem.rdd.getNumPartitions >= 7)
    val qs = Sampling.generateQueries(lineitem, 20, seed = 7)
    for (cap <- Seq(1, 100, 20000)) assertSameSamples(lineitem, qs, cap)
    // Some samples take rows from more than one partition.
    val whole = Sampling.querySamples(lineitem, qs, 20000)
    assert(whole.exists(_.rows.size > 12000 / 8))
  }

  test("a query without matches is dropped") {
    val qs = Seq(EqQuery("l_returnflag", "NO_SUCH_FLAG"), RangeQuery("l_quantity", 0, 10),
      RangeQuery("l_quantity", 1e9, 2e9))
    assertSameSamples(lineitem, qs, 100)
    assert(Sampling.querySamples(lineitem, qs, 100).map(_.tag) == Seq(qs(1).tag))
  }

  test("a null value matches no query on its column") {
    val withNulls = cached(lineitem
      .withColumn("maybe_qty", when(col("l_orderkey") % 3 === 0, lit(null)).otherwise(col("l_quantity")))
      .withColumn("maybe_status", when(col("l_orderkey") % 4 === 0, lit(null)).otherwise(col("l_linestatus"))))
    val status = lineitem.select("l_linestatus").first().getString(0)
    val qs = Seq(RangeQuery("maybe_qty", 0, 1e9), EqQuery("maybe_status", status),
      RangeQuery("l_quantity", 0, 1e9))
    for (cap <- Seq(1, 100, 20000)) assertSameSamples(withNulls, qs, cap)
    val Seq(qty, m, all) = Sampling.querySamples(withNulls, qs, 20000)
    val (qi, mi) = (withNulls.columns.indexOf("maybe_qty"), withNulls.columns.indexOf("maybe_status"))
    assert(qty.rows.forall(!_.isNullAt(qi)) && m.rows.forall(!_.isNullAt(mi)))
    assert(qty.rows.size < all.rows.size && all.rows.size == 12000)
    withNulls.unpersist()
  }

  test("a row matching several queries is in each of their samples") {
    val qs = Seq(RangeQuery("l_quantity", 0, 30), RangeQuery("l_quantity", 10, 40),
      RangeQuery("l_quantity", 0, 30), EqQuery("l_returnflag", "R"))
    for (cap <- Seq(1, 100, 20000)) assertSameSamples(lineitem, qs, cap)
    val Seq(a, b, c, _) = Sampling.querySamples(lineitem, qs, 20000)
    assert(a.rows == c.rows)
    val shared = a.rows.toSet.intersect(b.rows.toSet)
    assert(shared.nonEmpty && shared.size < a.rows.size)
  }

  test("querySamples runs one Spark job, and the numeric bounds take one aggregation") {
    val qs = Sampling.generateQueries(lineitem, 20, seed = 8)
    val (samples, sampleJobs) = jobsOf(Sampling.querySamples(lineitem, qs, 100))
    assert(sampleJobs == 1)
    assert(samples.nonEmpty)

    val numeric = orders.select("o_orderkey", "o_custkey", "o_totalprice")
    val (_, oneAgg) = jobsOf(numeric.agg(min("o_orderkey"), max("o_orderkey")).first())
    val (_, bounds) = jobsOf(Sampling.generateQueries(numeric, 10, seed = 9))
    val (_, perColumn) = jobsOf(SamplingReference.generateQueries(numeric, 10, seed = 9))
    assert(oneAgg >= 1)
    assert(bounds == oneAgg)
    assert(perColumn == 3 * oneAgg)
  }

  test("concurrent and sequential fits give bit-identical predictions") {
    val samples = Sampling.querySamples(orders, Sampling.generateQueries(orders, 16, seed = 10), 400)
      .filter(_.rows.size >= 20)
    val (train, test) = samples.splitAt(samples.size - 4)
    assert(train.size >= 8 && test.size == 4)
    val examples = ComPredict.examplesByCodec(train, Layouts.RowCsv, Codecs.compressing, Features.Entropy)
    assert(examples.keySet == Codecs.compressing.map(_.name).toSet)
    for (c <- Codecs.compressing) {
      val one = SamplingReference.examples(train, Layouts.RowCsv, c)
      assert(examples(c.name).map(e => (e.tag, e.features.toSeq, e.ratio)) ==
        one.map(e => (e.tag, e.features.toSeq, e.ratio)))
    }
    // Decompression labels are timings: both fits use the same examples.
    val concurrent = ComPredict.fitPredictor(examples, Layouts.RowCsv)
    val sequential = SamplingReference.fitSequential(examples, Layouts.RowCsv)
    for (s <- test) assert(concurrent.predict(s.rows, s.schema) == sequential.predict(s.rows, s.schema))
    // End to end, ratios are measured, not timed, so they match too.
    val trained = ComPredict.trainPredictor(train, Layouts.RowCsv)
    val reference = SamplingReference.trainPredictor(train, Layouts.RowCsv)
    for (s <- test)
      assert(trained.predict(s.rows, s.schema).map(_.ratio) == reference.predict(s.rows, s.schema).map(_.ratio))
  }
}
