package repro.compress

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, SynthData}
import scala.util.Random

class ComPredictSpec extends AnyFunSuite with SparkSpec {

  test("metrics: perfect prediction") {
    val m = ComPredict.metrics(Seq(1.0, 2.0, 3.0), Seq(1.0, 2.0, 3.0))
    assert(m.mae == 0.0 && m.mape == 0.0 && m.r2 == 1.0)
  }

  test("metrics: hand-computed MAE / MAPE / R2") {
    val m = ComPredict.metrics(Seq(2.0, 4.0), Seq(1.0, 5.0))
    assert(math.abs(m.mae - 1.0) < 1e-12)
    assert(math.abs(m.mape - (1.0 / 1.0 + 1.0 / 5.0) / 2 * 100) < 1e-9)
    // mean actual = 3, ssTot = 8, ssRes = 2 -> R2 = 0.75
    assert(math.abs(m.r2 - 0.75) < 1e-12)
  }

  test("metrics: predicting the mean gives R2 = 0") {
    val m = ComPredict.metrics(Seq(2.0, 2.0), Seq(1.0, 3.0))
    assert(math.abs(m.r2) < 1e-12)
  }

  test("metrics reject mismatched lengths") {
    assertThrows[IllegalArgumentException] { ComPredict.metrics(Seq(1.0), Seq(1.0, 2.0)) }
  }

  test("Averaging model predicts the training mean everywhere") {
    val f = ComPredict.Averaging.fit(Seq(Array(1.0), Array(2.0)), Seq(10.0, 20.0))
    assert(f.predict(Array(99.0)) == 15.0)
  }

  test("MLlib models learn a deterministic function of the features (R2 > 0.9)") {
    spark // force session init for SparkSession.active inside models
    val rng = new Random(80)
    val xs = Vector.fill(120)(Array(rng.nextDouble() * 10, rng.nextDouble() * 5))
    val ys = xs.map(x => 3.0 * x(0) + 0.5 * x(1) + 1.0)
    for (model <- Seq(ComPredict.randomForest(), ComPredict.gbt(), ComPredict.linear())) {
      val (fitted, _) = (model.fit(xs.take(90), ys.take(90)), ())
      val m = ComPredict.metrics(xs.drop(90).map(fitted.predict), ys.drop(90))
      assert(m.r2 > 0.9, s"${model.name}: $m")
    }
  }

  test("allModels includes the naive baseline plus three learners, RF last") {
    val names = ComPredict.allModels().map(_.name)
    assert(names.head == "Averaging" && names.last == "Random Forest" && names.length == 4)
  }

  test("examplesByCodec measures real codecs: repetition raises the ratio") {
    import spark.implicits._
    val rep = (1 to 400).map(_ => ("aaaa", "bbbb")).toDF("x", "y")
    val div = (1 to 400).map(i => (s"x$i${i * 31}", s"y$i${i * 17}")).toDF("x", "y")
    val sRep = Sampling.Sample("rep", rep.collect().toVector, rep.schema)
    val sDiv = Sampling.Sample("div", div.collect().toVector, div.schema)
    val ex = ComPredict.examplesByCodec(Seq(sRep, sDiv), Layouts.RowCsv, Seq(Codecs.Gzip),
      Features.Entropy)(Codecs.Gzip.name)
    assert(ex.find(_.tag == "rep").get.ratio > ex.find(_.tag == "div").get.ratio)
  }

  test("examplesByCodec ratios equal measureRows per codec, in both layouts") {
    val orders = SynthData.orders(spark, sf = 0.002)
    val rows = orders.collect().toVector
    val samples = Seq(Sampling.Sample("a", rows.take(300), orders.schema),
      Sampling.Sample("b", rows.slice(300, 900), orders.schema))
    for (layout <- Seq(Layouts.RowCsv, Layouts.Columnar)) {
      val ex = ComPredict.examplesByCodec(samples, layout, Codecs.compressing, Features.Entropy)
      for (c <- Codecs.compressing) {
        assert(ex(c.name).map(_.tag) == Seq("a", "b"))
        assert(ex(c.name).map(_.ratio) ==
          samples.map(s => CompressionMeasure.measureRows(s.rows, layout, c).ratio), s"$layout $c")
      }
    }
  }

  test("examplesByCodec feature kinds change the feature dimensionality") {
    import spark.implicits._
    val df = (1 to 50).map(i => (i, s"s$i")).toDF("a", "b")
    val s = Sampling.Sample("t", df.collect().toVector, df.schema)
    def features(kind: Features.Kind) =
      ComPredict.examplesByCodec(Seq(s), Layouts.RowCsv, Seq(Codecs.Lz4), kind)(Codecs.Lz4.name)
        .head.features
    assert(features(Features.Size).length == 2)
    assert(features(Features.Entropy).length == 2 + Features.dtypeUniverse.length)
  }

  test("trainEval refuses tiny datasets") {
    assertThrows[IllegalArgumentException] {
      ComPredict.trainEval(Vector.empty, _.ratio, ComPredict.Averaging)
    }
  }

  test("trainPredictor rejects fewer than two samples") {
    import spark.implicits._
    val df = (1 to 50).map(i => (i, s"s$i")).toDF("a", "b")
    val one = Seq(Sampling.Sample("t", df.collect().toVector, df.schema))
    val e = intercept[IllegalArgumentException](ComPredict.trainPredictor(one, Layouts.RowCsv))
    assert(e.getMessage.contains("at least 2 training samples"))
  }

  test("trainPredictor end-to-end: prediction within 30% of measured ratio on held-out queries") {
    val orders = SynthData.orders(spark, sf = 0.005).cache()
    val qs = Sampling.generateQueries(orders, 30, seed = 81)
    val samples = Sampling.querySamples(orders, qs, 400)
    val (train, test) = samples.splitAt(samples.length - 4)
    val predictor = ComPredict.trainPredictor(train, Layouts.RowCsv)
    for (s <- test) {
      val perfs = predictor.predict(s.rows, s.schema)
      assert(perfs.head == repro.core.CodecPerf.identity)
      val measured = CompressionMeasure.measureRows(s.rows, Layouts.RowCsv, Codecs.Gzip)
      val predicted = perfs(1).ratio // codec order: identity, gzip, snappy, lz4
      assert(math.abs(predicted - measured.ratio) / measured.ratio < 0.30,
        s"predicted $predicted vs measured ${measured.ratio}")
    }
    orders.unpersist()
  }
}
