package repro.compress

import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.ml.regression.{GBTRegressor, LinearRegression, RandomForestRegressor}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.Concurrently
import repro.core.CodecPerf

/** COMPREDICT (Section V): learn compression ratio and decompression speed
  * per (layout, codec) from per-sample features.
  *
  * Model zoo (MLlib stand-ins for the paper's sklearn set — see DESIGN.md):
  * Averaging (naive), RandomForest, GBT (≈XGBoost), Linear (≈SVR-linear).
  */
object ComPredict {

  /** One labelled example: features + both regression targets. */
  final case class Example(tag: String, features: Array[Double], ratio: Double,
                           decompSecPerGB: Double)

  /** Regression quality metrics used throughout the paper's Tables V–VIII. */
  final case class RegMetrics(mae: Double, mape: Double, r2: Double) {
    override def toString: String = f"MAE=$mae%.3f MAPE=$mape%.3f R2=$r2%.3f"
  }

  def metrics(pred: Seq[Double], actual: Seq[Double]): RegMetrics = {
    require(pred.length == actual.length && pred.nonEmpty, "prediction/label length mismatch")
    val n    = pred.length
    val mae  = pred.zip(actual).map { case (p, a) => math.abs(p - a) }.sum / n
    val mape = pred.zip(actual).map { case (p, a) => math.abs(p - a) / math.max(1e-9, math.abs(a)) }
      .sum / n * 100.0
    val mean = actual.sum / n
    val ssTot = actual.map(a => (a - mean) * (a - mean)).sum
    val ssRes = pred.zip(actual).map { case (p, a) => (p - a) * (p - a) }.sum
    val r2 = if (ssTot < 1e-12) (if (ssRes < 1e-12) 1.0 else 0.0) else 1.0 - ssRes / ssTot
    RegMetrics(mae, mape, r2)
  }

  /** A fitted single-target regressor. */
  trait Fitted extends Serializable { def predict(features: Array[Double]): Double }

  /** A trainable model family. */
  trait Model { def name: String; def fit(xs: Seq[Array[Double]], ys: Seq[Double]): Fitted }

  /** Naive baseline: always predict the training mean. */
  object Averaging extends Model {
    val name = "Averaging"
    def fit(xs: Seq[Array[Double]], ys: Seq[Double]): Fitted = {
      val mean = ys.sum / ys.length
      (_: Array[Double]) => mean
    }
  }

  private def toDF(spark: SparkSession, xs: Seq[Array[Double]], ys: Seq[Double]): DataFrame = {
    import spark.implicits._
    xs.zip(ys).map { case (x, y) => (Vectors.dense(x), y) }.toDF("features", "label")
  }

  /** MLlib-backed model; the fitted transformer is applied row-at-a-time via
    * a one-row DataFrame-free local predict (MLlib regressors expose
    * `predict(Vector)` on their models).
    */
  final class SparkModel(val name: String,
                         make: () => org.apache.spark.ml.Predictor[
                           org.apache.spark.ml.linalg.Vector, _, _]) extends Model {
    def fit(xs: Seq[Array[Double]], ys: Seq[Double]): Fitted = {
      val spark = SparkSession.active
      val df    = toDF(spark, xs, ys)
      val model = make().fit(df)
      val m = model.asInstanceOf[org.apache.spark.ml.regression.RegressionModel[
        org.apache.spark.ml.linalg.Vector, _]]
      (f: Array[Double]) => m.predict(Vectors.dense(f))
    }
  }

  /** The seed of every randomized COMPREDICT model. */
  val ModelSeed = 7L

  // With fewer training examples than its 32 bins, MLlib logs "DecisionTree
  // reducing maxBins from 32 to N (= number of training instances)" once per
  // fit: a feature of N examples has at most N distinct values, so N bins
  // already hold every split candidate and the forest is the same. A
  // COMPREDICT training set is a few dozen samples, so `trainPredictor` logs
  // it once for each of its six fits.
  def randomForest(): Model = new SparkModel("Random Forest",
    () => new RandomForestRegressor().setNumTrees(60).setMaxDepth(8).setSeed(ModelSeed))
  def gbt(): Model = new SparkModel("XGBoost*", // GBTRegressor stand-in
    () => new GBTRegressor().setMaxIter(40).setMaxDepth(5).setSeed(ModelSeed))
  // LinearRegression's normal-equation solver calls BLAS and LAPACK through
  // netlib. Without a native BLAS or LAPACK, the first fit in a JVM logs
  // "InstanceBuilder: Failed to load implementation" for JNIBLAS, VectorBLAS
  // (the JDK's incubating vector API is not enabled) and JNILAPACK, then
  // falls back to netlib's pure-Java implementation.
  def linear(): Model = new SparkModel("SVR*", // LinearRegression stand-in (L2)
    () => new LinearRegression().setRegParam(0.1).setElasticNetParam(0.0))

  /** The Table VI model zoo. */
  def allModels(): Vector[Model] = Vector(Averaging, gbt(), linear(), randomForest())

  /** The serialized bytes of a row set in `layout` and its model features
    * of the given kind.
    */
  private def featurize(rows: IndexedSeq[Row], schema: StructType, layout: Layout,
                        kind: Features.Kind): (Array[Byte], Array[Double]) = {
    val raw = layout.serialize(rows)
    val feats = kind match {
      case Features.Size => Features.sizeOnlyVector(raw.length.toLong, rows.length.toLong)
      case Features.Entropy =>
        Features.featureVector(raw.length.toLong, rows.length.toLong,
          Features.weightedEntropyLocal(rows, schema))
    }
    (raw, feats)
  }

  /** Labelled examples for each of `codecs`, by codec name, in sample
    * order: features of the given kind, targets measured with the real
    * codec. Each sample is serialized in `layout` and featurized once, and
    * its codecs are measured on those bytes on the driver, one sample after
    * another.
    */
  def examplesByCodec(samples: Seq[Sampling.Sample], layout: Layout, codecs: Seq[Codec],
                      kind: Features.Kind): Map[String, Vector[Example]] = {
    val perSample = samples.map { s =>
      val (raw, feats) = featurize(s.rows, s.schema, layout, kind)
      CompressionMeasure.codecPerfs(raw, codecs)
        .map(m => Example(s.tag, feats, m.ratio, m.decompSecPerGB))
    }
    codecs.zipWithIndex.map { case (c, k) => c.name -> perSample.map(_(k)).toVector }.toMap
  }

  /** Fit on an explicit training set, compute metrics on an explicit test
    * set — used when train and test distributions deliberately differ
    * (Table V's random-samples-vs-queried-data contrast).
    */
  def fitEval(train: Seq[Example], test: Seq[Example], target: Example => Double,
              model: Model): (Fitted, RegMetrics) = {
    require(train.size >= 2 && test.nonEmpty, s"need data: train=${train.size} test=${test.size}")
    val fitted = model.fit(train.map(_.features), train.map(target))
    (fitted, metrics(test.map(e => fitted.predict(e.features)), test.map(target)))
  }

  /** [[trainEval]]'s training share of the examples and its shuffle seed. */
  val TrainFrac = 0.7
  val SplitSeed = 11L

  /** Deterministic train/test split, fit on train, metrics on test.
    * Returns (fitted, testMetrics).
    */
  def trainEval(examples: Seq[Example], target: Example => Double,
                model: Model): (Fitted, RegMetrics) = {
    require(examples.size >= 5, s"need >=5 examples, got ${examples.size}")
    val rng      = new scala.util.Random(SplitSeed)
    val shuffled = rng.shuffle(examples.toVector)
    val nTrain   = math.max(2, (shuffled.size * TrainFrac).toInt)
    val (tr, te) = shuffled.splitAt(nTrain)
    fitEval(tr, te, target, model)
  }

  /** A full per-codec predictor for the SCOPe pipeline: given a partition
    * sample, predict CodecPerf for each compressing codec (identity is
    * prepended with its exact R=1, D=0 values).
    */
  final class PerfPredictor(fittedRatio: Map[String, Fitted], fittedDecomp: Map[String, Fitted],
                            layout: Layout) extends Serializable {
    def predict(rows: IndexedSeq[Row], schema: StructType): Vector[CodecPerf] = {
      val (_, f) = featurize(rows, schema, layout, Features.Entropy)
      CodecPerf.identity +: Codecs.compressing.map { c =>
        CodecPerf(math.max(1.0, fittedRatio(c.name).predict(f)),
                  math.max(0.0, fittedDecomp(c.name).predict(f)))
      }
    }
  }

  /** Fits a [[randomForest]] [[PerfPredictor]] on examples by codec name (as
    * [[examplesByCodec]] gives them). The ratio and decompression models of
    * every compressing codec, six fits, run concurrently, one driver thread
    * each, so their small MLlib jobs overlap.
    */
  def fitPredictor(examples: Map[String, Seq[Example]], layout: Layout): PerfPredictor = {
    val model = randomForest()
    val names = Codecs.compressing.map(_.name)
    val fits = Concurrently.run(names.flatMap { c =>
      val ex = examples(c)
      require(ex.size >= 2, s"codec $c needs at least 2 examples, got ${ex.size}")
      val xs = ex.map(_.features)
      Seq(() => model.fit(xs, ex.map(_.ratio)), () => model.fit(xs, ex.map(_.decompSecPerGB)))
    }).map(_.get)
    val (ratio, decomp) = fits.grouped(2).map(p => (p(0), p(1))).toVector.unzip
    new PerfPredictor(names.zip(ratio).toMap, names.zip(decomp).toMap, layout)
  }

  /** Trains a [[PerfPredictor]] over all compressing codecs for one layout:
    * [[examplesByCodec]] measures the codecs on the driver, then
    * [[fitPredictor]] fits the models concurrently.
    *
    * @throws IllegalArgumentException if there are fewer than 2 samples
    */
  def trainPredictor(samples: Seq[Sampling.Sample], layout: Layout): PerfPredictor = {
    require(samples.size >= 2, s"COMPREDICT needs at least 2 training samples, got ${samples.size}")
    fitPredictor(examplesByCodec(samples, layout, Codecs.compressing, Features.Entropy), layout)
  }
}
