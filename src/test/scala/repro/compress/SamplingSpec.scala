package repro.compress

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, SynthData}

class SamplingSpec extends AnyFunSuite with SparkSpec {

  private lazy val orders = SynthData.orders(spark, sf = 0.005).cache()

  // Every suite shares one session: a frame left cached here stays cached for
  // later suites that cache the same plan.
  override def afterAll(): Unit = try orders.unpersist() finally super.afterAll()

  test("generateQueries is deterministic in the seed") {
    val a = Sampling.generateQueries(orders, 10, seed = 70).map(_.tag)
    val b = Sampling.generateQueries(orders, 10, seed = 70).map(_.tag)
    assert(a == b)
  }

  test("generateQueries produces both equality and range predicates on a mixed schema") {
    val qs = Sampling.generateQueries(orders, 40, seed = 71)
    assert(qs.exists(_.isInstanceOf[Sampling.EqQuery]))
    assert(qs.exists(_.isInstanceOf[Sampling.RangeQuery]))
  }

  test("query samples honor their predicates") {
    val q = Sampling.EqQuery("o_orderstatus", "O")
    val samples = Sampling.querySamples(orders, Seq(q), maxRows = 500)
    assert(samples.nonEmpty)
    val idx = orders.columns.indexOf("o_orderstatus")
    samples.head.rows.foreach(r => assert(r.get(idx).toString == "O"))
  }

  test("query samples are capped at maxRows") {
    val q = Sampling.RangeQuery("o_totalprice", 0, 1e9)
    val s = Sampling.querySamples(orders, Seq(q), maxRows = 100)
    assert(s.head.rows.length == 100)
  }

  test("empty query results are dropped, not returned as empty samples") {
    val q = Sampling.EqQuery("o_orderstatus", "NO_SUCH_STATUS")
    assert(Sampling.querySamples(orders, Seq(q), 100).isEmpty)
  }

  test("random samples have roughly the requested size and carry the schema") {
    val ss = Sampling.randomSamples(orders, n = 3, rowsPer = 200, seed = 72)
    assert(ss.length == 3)
    ss.foreach { s =>
      assert(s.rows.nonEmpty && s.rows.length <= 200)
      assert(s.schema == orders.schema)
    }
  }

  test("Fig 4 premise: query-result samples have lower entropy than random samples") {
    val qs = Sampling.generateQueries(orders, 12, seed = 73)
    val qSamples = Sampling.querySamples(orders, qs, 400)
    val rSamples = Sampling.randomSamples(orders, 12, 400, seed = 74)
    def meanEntropy(ss: Seq[Sampling.Sample]): Double = {
      val hs = ss.map(s => Features.weightedEntropyLocal(s.rows, s.schema).values.sum)
      hs.sum / hs.size
    }
    assert(meanEntropy(qSamples) < meanEntropy(rSamples))
  }

  test("generateQueries rejects an empty frame") {
    val e = intercept[IllegalArgumentException] {
      Sampling.generateQueries(orders.filter("o_orderkey < 0"), 5, seed = 75)
    }
    assert(e.getMessage.contains("empty"))
  }

  test("generateQueries rejects a frame with no categorical or numeric column") {
    val e = intercept[IllegalArgumentException] {
      Sampling.generateQueries(orders.select("o_orderdate"), 5, seed = 76)
    }
    assert(e.getMessage.contains("no categorical or numeric column"))
  }

  test("generateQueries rejects a negative query count") {
    val e = intercept[IllegalArgumentException](Sampling.generateQueries(orders, -1, seed = 77))
    assert(e.getMessage.contains("-1"))
  }

  test("generateQueries rejects a numeric column that holds only nulls") {
    val nulls = orders.selectExpr("o_orderstatus", "CAST(NULL AS DOUBLE) AS no_price")
    val e = intercept[IllegalArgumentException](Sampling.generateQueries(nulls, 5, seed = 78))
    assert(e.getMessage.contains("no_price"))
  }

  test("querySamples rejects a cap below one row") {
    val e = intercept[IllegalArgumentException] {
      Sampling.querySamples(orders, Seq(Sampling.EqQuery("o_orderstatus", "O")), maxRows = 0)
    }
    assert(e.getMessage.contains("maxRows"))
  }
}
