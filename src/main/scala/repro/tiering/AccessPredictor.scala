package repro.tiering

import org.apache.spark.ml.classification.{RandomForestClassificationModel, RandomForestClassifier}
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.ml.linalg.{Vector => MLVector}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.Concurrently
import repro.core.Tier

/** The paper's access-pattern / ideal-tier predictor (Tables III–IV):
  * a Random Forest trained on (size, age, monthly read/write lags) with the
  * OPTASSIGN-optimal tier as the ground-truth label, evaluated out-of-time.
  */
object AccessPredictor {

  /** Monthly read/write lags per feature row. */
  val Lags = 6

  /** The forest's seed. */
  val ForestSeed = 13L

  /** Decision threshold on P(hot) for the 2-tier case. A false-cool (hot
    * data cooled) pays per-access read premiums, a false-hot only the
    * storage delta, so the cost-sensitive threshold sits below 0.5.
    */
  val HotBias = 0.4

  /** Row-normalized confusion counts keyed by (predictedTier, idealTier). */
  final case class Confusion(labels: Vector[String], counts: Map[(Int, Int), Long]) {
    def apply(pred: Int, ideal: Int): Long = counts.getOrElse((pred, ideal), 0L)
    def total: Long = counts.values.sum
    def accuracy: Double = labels.indices.map(i => apply(i, i)).sum.toDouble / total
    def f1(cls: Int): Double = {
      val tp = apply(cls, cls).toDouble
      val fp = labels.indices.filter(_ != cls).map(i => apply(cls, i)).sum.toDouble
      val fn = labels.indices.filter(_ != cls).map(i => apply(i, cls)).sum.toDouble
      if (tp == 0) 0.0 else 2 * tp / (2 * tp + fp + fn)
    }
    def macroF1: Double = labels.indices.map(f1).sum / labels.size
  }

  /** One test-month dataset as the forest scored it. */
  private[tiering] final case class Score(datasetId: Int, probability: MLVector, prediction: Int, label: Int)

  /** Everything one [[trainEval]] call fits and decides. */
  private[tiering] final case class Run(forest: RandomForestClassificationModel, scores: Vector[Score],
                                        predicted: Map[Int, Int], confusion: Confusion)

  /** OPTASSIGN's ideal tier per dataset for [t0, t0+horizon) under known
    * future accesses — the training label.
    */
  def idealTiers(acc: EnterpriseSim.Account, tiers: Vector[Tier], hotIdx: Int,
                 t0: Int, horizon: Int): Map[Int, Int] = {
    val known = Tiering.knownAccesses(acc, t0, horizon)
    val inst  = Tiering.instance(acc, tiers, hotIdx, horizon, known)
    Tiering.optAssignTiers(inst).map(a => a.id -> a.tier).toMap
  }

  /** Labelled feature frame at t0 from the access `log` (features strictly
    * before t0, label from [t0, t0+horizon) — no leakage).
    */
  private[tiering] def labelled(log: DataFrame, acc: EnterpriseSim.Account, tiers: Vector[Tier],
                                hotIdx: Int, t0: Int, horizon: Int, lags: Int): DataFrame = {
    val spark = log.sparkSession
    import spark.implicits._
    val feats = TierFeatures.featuresAt(log, t0, lags)
    val lbl   = idealTiers(acc, tiers, hotIdx, t0, horizon).toSeq.toDF("dataset_id", "label_tier")
    feats.join(lbl, "dataset_id").withColumn("label", col("label_tier").cast("double"))
  }

  /** Trains on months `trainT0s` (all strictly before `testT0`: out-of-time
    * validation) and evaluates at `testT0`. Returns the per-dataset
    * predicted tier and the confusion matrix vs the ideal tier.
    *
    * Only the window starts are checked against `testT0`: a label covers
    * `[t0, t0+horizon)`, so the last training labels may share months with
    * the test label (Tables III–IV train on 6..13 and test at 14 with a
    * 2-month horizon).
    */
  def trainEval(spark: SparkSession, acc: EnterpriseSim.Account, tiers: Vector[Tier],
                hotIdx: Int, trainT0s: Seq[Int], testT0: Int, horizon: Int): (Map[Int, Int], Confusion) = {
    val r = run(spark, acc, tiers, hotIdx, trainT0s, testT0, horizon)
    (r.predicted, r.confusion)
  }

  /** [[trainEval]] with the forest and the test month's scores.
    *
    * Each Spark plan runs once. The forest's input (`label`, `features`) and
    * the test month's rows are collected side by side; the forest then fits
    * on a copy of its input rebuilt from the driver with the same partitions
    * holding the same rows in the same order. MLlib seeds its bootstrap and
    * split sampling by partition index, so that copy grows the forest the
    * lazy frame would, without re-running the feature SQL on each of
    * MLlib's passes. The test month is scored on the driver.
    */
  private[tiering] def run(spark: SparkSession, acc: EnterpriseSim.Account, tiers: Vector[Tier],
                           hotIdx: Int, trainT0s: Seq[Int], testT0: Int, horizon: Int): Run = {
    require(trainT0s.nonEmpty, "trainT0s must name at least one training month")
    require(tiers.indices.contains(hotIdx), s"hotIdx $hotIdx is not an index of tiers (${tiers.size})")
    require(horizon >= 1, s"horizon must be at least 1, got $horizon")
    require(trainT0s.forall(_ < testT0), "training windows must precede the test window")
    val log   = TierFeatures.accessLogDF(spark, acc)
    val train = trainT0s.map(t0 => labelled(log, acc, tiers, hotIdx, t0, horizon, Lags))
      .reduce(_ unionAll _)
    val test  = labelled(log, acc, tiers, hotIdx, testT0, horizon, Lags)

    // The assembler hands its 14 feature columns to its UDF as one named
    // struct, whose name and value arguments outnumber the 25 fields a plan
    // string shows (`spark.sql.debug.maxToStringFields`). Rendering these
    // plans for their SQL execution events therefore logs "SparkStringUtils:
    // Truncated the string representation of a plan", once per JVM. Only
    // that description is cut; the plan runs whole.
    val assembler = new VectorAssembler()
      .setInputCols(TierFeatures.featureCols().toArray).setOutputCol("features")
    // Exactly the columns the forest reads: AQE coalesces this plan's
    // shuffles as it does inside MLlib, where a wider frame would not.
    val input = assembler.transform(train).select(col("label"), col("features"))
    val scored = assembler.transform(test).select(col("dataset_id"), col("features"),
      col("label").cast("int"))
    val Vector(trainParts, testParts) =
      Concurrently.run(Seq(input, scored).map(df => () => df.rdd.glom().collect())).map(_.get)
    val held = spark.sparkContext.parallelize(trainParts.toSeq, trainParts.length).flatMap(_.iterator)
    // Each of MLlib's per-level split jobs ships the trees grown so far: at
    // 80 trees and depth 10 its task binary passes 1000 KiB, and Spark logs
    // "DAGScheduler: Broadcasting large task binary" (it already broadcasts
    // the binary; the line reports the size, about 1–1.8 MiB here).
    val forest = new RandomForestClassifier()
      .setNumTrees(80).setMaxDepth(10).setSeed(ForestSeed)
      .fit(spark.createDataFrame(held, input.schema))
    val scores = testParts.toVector.flatten.map { case Row(id: Int, v: MLVector, label: Int) =>
      Score(id, forest.predictProbability(v), forest.predict(v).toInt, label)
    }

    // New ingests (no history at testT0) cannot be predicted from lags; the
    // platform default for fresh data is Hot (the paper estimates them from
    // domain knowledge instead of the RF).
    val createdAt = acc.datasets.map(d => d.id -> d.createdMonth).toMap
    val pred = scores.map { s =>
      val cls =
        if (createdAt(s.datasetId) >= testT0) hotIdx
        else if (tiers.length == 2) {
          if (s.probability(hotIdx) >= HotBias) hotIdx else 1 - hotIdx
        } else s.prediction
      (s.datasetId, cls, s.label)
    }
    val predicted = pred.map { case (id, cls, _) => id -> cls }.toMap
    val counts = pred.groupBy { case (_, cls, lbl) => (cls, lbl) }
      .view.mapValues(_.length.toLong).toMap
    Run(forest, scores, predicted, Confusion(tiers.map(_.name), counts))
  }
}
