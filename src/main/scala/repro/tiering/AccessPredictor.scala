package repro.tiering

import org.apache.spark.ml.Pipeline
import org.apache.spark.ml.classification.RandomForestClassifier
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Tier

/** The paper's access-pattern / ideal-tier predictor (Tables III–IV):
  * a Random Forest trained on (size, age, monthly read/write lags) with the
  * OPTASSIGN-optimal tier as the ground-truth label, evaluated out-of-time.
  */
object AccessPredictor {

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

  /** OPTASSIGN's ideal tier per dataset for [t0, t0+horizon) under known
    * future accesses — the training label.
    */
  def idealTiers(acc: EnterpriseSim.Account, tiers: Vector[Tier], hotIdx: Int,
                 t0: Int, horizon: Int): Map[Int, Int] = {
    val known = Tiering.knownAccesses(acc, t0, horizon)
    val inst  = Tiering.instance(acc, tiers, hotIdx, horizon, known)
    Tiering.optAssignTiers(inst).map(a => a.id -> a.tier).toMap
  }

  /** Labelled feature frame at t0 (features strictly before t0, label from
    * [t0, t0+horizon) — no leakage).
    */
  def labelled(spark: SparkSession, acc: EnterpriseSim.Account, tiers: Vector[Tier],
               hotIdx: Int, t0: Int, horizon: Int, lags: Int = 6): DataFrame = {
    import spark.implicits._
    val log   = TierFeatures.accessLogDF(spark, acc)
    val feats = TierFeatures.featuresAt(log, t0, lags)
    val lbl   = idealTiers(acc, tiers, hotIdx, t0, horizon).toSeq.toDF("dataset_id", "label_tier")
    feats.join(lbl, "dataset_id").withColumn("label", col("label_tier").cast("double"))
  }

  /** Trains on months `trainT0s` (all strictly before `testT0`: out-of-time
    * validation) and evaluates at `testT0`. Returns the per-dataset
    * predicted tier and the confusion matrix vs the ideal tier.
    *
    * @param hotBias decision threshold on P(hot) for the 2-tier case. A
    *                false-cool (hot data cooled) pays per-access read
    *                premiums, a false-hot only the storage delta, so the
    *                cost-sensitive threshold sits below 0.5.
    */
  def trainEval(spark: SparkSession, acc: EnterpriseSim.Account, tiers: Vector[Tier],
                hotIdx: Int, trainT0s: Seq[Int], testT0: Int, horizon: Int,
                lags: Int = 6, seed: Long = 13, hotBias: Double = 0.4): (Map[Int, Int], Confusion) = {
    require(trainT0s.forall(_ < testT0), "training windows must precede the test window")
    val train = trainT0s.map(t0 => labelled(spark, acc, tiers, hotIdx, t0, horizon, lags))
      .reduce(_ unionAll _)
    val test = labelled(spark, acc, tiers, hotIdx, testT0, horizon, lags)

    val pipeline = new Pipeline().setStages(Array(
      new VectorAssembler()
        .setInputCols(TierFeatures.featureCols(lags).toArray).setOutputCol("features"),
      new RandomForestClassifier()
        .setNumTrees(80).setMaxDepth(10).setSeed(seed),
    ))
    val model = pipeline.fit(train)
    val rows  = model.transform(test)
      .select(col("dataset_id"), col("probability"), col("prediction").cast("int"),
        col("label").cast("int"))
      .collect()

    // New ingests (no history at testT0) cannot be predicted from lags; the
    // platform default for fresh data is Hot (the paper estimates them from
    // domain knowledge instead of the RF).
    val createdAt = acc.datasets.map(d => d.id -> d.createdMonth).toMap
    val pred = rows.map { r =>
      val id = r.getInt(0)
      val cls =
        if (createdAt(id) >= testT0) hotIdx
        else if (tiers.length == 2) {
          val pHot = r.getAs[org.apache.spark.ml.linalg.Vector]("probability")(hotIdx)
          if (pHot >= hotBias) hotIdx else 1 - hotIdx
        } else r.getInt(2)
      (id, cls, r.getInt(3))
    }
    val predicted = pred.map { case (id, cls, _) => id -> cls }.toMap
    val counts = pred.groupBy { case (_, cls, lbl) => (cls, lbl) }
      .view.mapValues(_.length.toLong).toMap
    (predicted, Confusion(tiers.map(_.name), counts))
  }
}
