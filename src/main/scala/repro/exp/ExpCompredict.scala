package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.compress._
import repro.compress.ComPredict.{Example, RegMetrics}

/** Harnesses for the COMPREDICT experiments (Tables V–VIII): build random
  * and query-based samples over TPC-H-lite tables, measure the real codecs
  * in both layouts, and evaluate the model zoo.
  */
object ExpCompredict {

  /** The (scheme label, layout, codec) grid of Table VI. */
  val schemeGrid: Vector[(String, Layout, Codec)] = Vector(
    ("gzip", Layouts.RowCsv, Codecs.Gzip),
    ("snappy", Layouts.RowCsv, Codecs.SnappyCodec),
    ("parquet+gzip", Layouts.Columnar, Codecs.Gzip),
    ("parquet+snappy", Layouts.Columnar, Codecs.SnappyCodec),
    ("parquet+lz4", Layouts.Columnar, Codecs.Lz4),
  )

  /** The tables samples are drawn from (queries are generated per table, as
    * the paper's 22 templates target individual TPC-H tables).
    */
  def sourceTables(spark: SparkSession, sf: Double, skew: Boolean): Vector[DataFrame] =
    if (skew)
      Vector(repro.SynthDataExt.lineitemSkew(spark, sf),
             repro.SynthData.orders(spark, sf),
             repro.SynthData.part(spark, sf))
    else
      Vector(repro.SynthData.lineitem(spark, sf),
             repro.SynthData.orders(spark, sf),
             repro.SynthData.customer(spark, sf),
             repro.SynthData.part(spark, sf))

  /** Minimum rows for a usable training sample: decompression timings on
    * sub-millisecond buffers are noise, and the paper's TPC-H template
    * results are substantial.
    */
  val MinSampleRows = 200

  /** Pools query-result samples across tables: `queriesPerTable` synthetic
    * predicate queries each, results capped at `maxRows`.
    */
  def querySamples(spark: SparkSession, sf: Double, skew: Boolean, queriesPerTable: Int,
                   maxRows: Int, seed: Long): Vector[Sampling.Sample] =
    sourceTables(spark, sf, skew).zipWithIndex.flatMap { case (df, i) =>
      val cached = df.cache()
      val qs = Sampling.generateQueries(cached, queriesPerTable, seed + i)
      val ss = Sampling.querySamples(cached, qs, maxRows)
      cached.unpersist()
      ss
    }.filter(_.rows.length >= MinSampleRows)

  /** Pools random-row samples across tables (the Fig. 4 contrast). */
  def randomSamples(spark: SparkSession, sf: Double, nPerTable: Int, maxRows: Int,
                    seed: Long): Vector[Sampling.Sample] =
    sourceTables(spark, sf, skew = false).zipWithIndex.flatMap { case (df, i) =>
      val cached = df.cache()
      val ss = Sampling.randomSamples(cached, nPerTable, maxRows, seed + i)
      cached.unpersist()
      ss
    }

  final case class TableVRow(target: String, trainingData: String, features: String,
                             m: RegMetrics)

  /** Table V: gzip (row layout), Random Forest — random vs query samples,
    * size vs weighted-entropy features, for both targets.
    *
    * Every configuration is evaluated on the SAME held-out set of
    * query-result samples — the data actually read in production. That is
    * the paper's contrast: a model trained on random row samples badly
    * mispredicts the compression behaviour of queried data (Fig. 4).
    */
  def tableV(spark: SparkSession, sf: Double, queriesPerTable: Int, maxRows: Int,
             seed: Long = 5): Vector[TableVRow] = {
    val qSamples = querySamples(spark, sf, skew = false, queriesPerTable, maxRows, seed)
    val rSamples = randomSamples(spark, sf, queriesPerTable, maxRows, seed + 100)
    val rng      = new scala.util.Random(seed + 200)
    val shuffledQ = rng.shuffle(qSamples)
    val nTest    = math.max(3, shuffledQ.size / 4)
    val (qTest, qTrain) = shuffledQ.splitAt(nTest)
    val rf = ComPredict.randomForest()

    def eval(trainSrc: Seq[Sampling.Sample], kind: Features.Kind,
             target: Example => Double): RegMetrics = {
      val train = ComPredict.buildExamples(trainSrc, Layouts.RowCsv, Codecs.Gzip, kind)
      val test  = ComPredict.buildExamples(qTest, Layouts.RowCsv, Codecs.Gzip, kind)
      ComPredict.fitEval(train, test, target, rf)._2
    }

    Vector(
      TableVRow("Compression Ratio", "Random Samples", "Weighted Entropy",
        eval(rSamples, Features.Entropy, _.ratio)),
      TableVRow("Compression Ratio", "Queries", "Size", eval(qTrain, Features.Size, _.ratio)),
      TableVRow("Compression Ratio", "Queries", "Weighted Entropy",
        eval(qTrain, Features.Entropy, _.ratio)),
      TableVRow("Decompression Speed", "Random Samples", "Weighted Entropy",
        eval(rSamples, Features.Entropy, _.decompSecPerGB)),
      TableVRow("Decompression Speed", "Queries", "Size",
        eval(qTrain, Features.Size, _.decompSecPerGB)),
      TableVRow("Decompression Speed", "Queries", "Weighted Entropy",
        eval(qTrain, Features.Entropy, _.decompSecPerGB)),
    )
  }

  final case class GridRow(model: String, scheme: String, m: RegMetrics)

  /** Tables VI–VIII core: evaluate `models` x `schemes` on one target over
    * pre-built samples.
    */
  def modelGrid(samples: Seq[Sampling.Sample], schemes: Seq[(String, Layout, Codec)],
                target: Example => Double, seed: Long = 7): Vector[GridRow] = {
    val models = ComPredict.allModels(seed)
    schemes.iterator.flatMap { case (label, layout, codec) =>
      val examples = ComPredict.buildExamples(samples, layout, codec)
      models.map { m =>
        GridRow(m.name, label, ComPredict.trainEval(examples, target, m)._2)
      }
    }.toVector
  }

  /** Table VI: compression-ratio prediction on the uniform dataset across
    * the full model x scheme grid.
    */
  def tableVI(spark: SparkSession, sf: Double, queriesPerTable: Int, maxRows: Int,
              seed: Long = 6): Vector[GridRow] = {
    val samples = querySamples(spark, sf, skew = false, queriesPerTable, maxRows, seed)
    modelGrid(samples, schemeGrid, _.ratio)
  }

  /** Tables VII (ratio) and VIII (decompression sec/GB): gzip and
    * parquet+gzip, on the uniform ("TPC-H 100GB" stand-in) and the
    * Zipf-skew datasets.
    */
  def tableVII_VIII(spark: SparkSession, sf: Double, queriesPerTable: Int, maxRows: Int,
                    skew: Boolean, seed: Long = 8): (Vector[GridRow], Vector[GridRow]) = {
    val samples = querySamples(spark, sf, skew, queriesPerTable, maxRows, seed)
    val schemes = schemeGrid.filter(s => s._1 == "gzip" || s._1 == "parquet+gzip")
    (modelGrid(samples, schemes, _.ratio), modelGrid(samples, schemes, _.decompSecPerGB))
  }
}
