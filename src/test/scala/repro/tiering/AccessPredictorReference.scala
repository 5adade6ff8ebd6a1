package repro.tiering

import org.apache.spark.ml.Pipeline
import org.apache.spark.ml.classification.{RandomForestClassificationModel, RandomForestClassifier}
import org.apache.spark.ml.feature.VectorAssembler
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.Tier

/** The first-written tier predictor, kept as a differential oracle for
  * `AccessPredictor.run`: every `labelled` frame builds its own access log,
  * the pipeline fits on the lazy union of the training frames (so each of
  * MLlib's passes re-runs the feature SQL), and the test month is scored by
  * `model.transform`. Returns the same [[AccessPredictor.Run]].
  */
object AccessPredictorReference {
  import AccessPredictor._

  def run(spark: SparkSession, acc: EnterpriseSim.Account, tiers: Vector[Tier],
          hotIdx: Int, trainT0s: Seq[Int], testT0: Int, horizon: Int,
          lags: Int, seed: Long, hotBias: Double): Run = {
    require(trainT0s.forall(_ < testT0), "training windows must precede the test window")
    def labelledAt(t0: Int) =
      labelled(TierFeatures.accessLogDF(spark, acc), acc, tiers, hotIdx, t0, horizon, lags)
    val train = trainT0s.map(labelledAt).reduce(_ unionAll _)
    val test = labelledAt(testT0)

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
    val scores = rows.toVector.map(r =>
      Score(r.getInt(0), r.getAs[org.apache.spark.ml.linalg.Vector]("probability"), r.getInt(2), r.getInt(3)))
    Run(model.stages(1).asInstanceOf[RandomForestClassificationModel], scores,
      predicted, Confusion(tiers.map(_.name), counts))
  }
}
