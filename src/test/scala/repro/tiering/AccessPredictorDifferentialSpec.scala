package repro.tiering

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core.{CostModel, Tier}

/** `AccessPredictor.run` against `AccessPredictorReference`, the lazy-frame
  * pipeline: the same forest, tree by tree, the same test-month scores and
  * the same predicted tiers and confusion counts.
  */
class AccessPredictorDifferentialSpec extends AnyFunSuite with SparkSpec {
  import AccessPredictorDifferentialSpec.Config

  private lazy val small = EnterpriseSim.account("p", nDatasets = 250, totalPB = 0.1,
    nMonths = 20, seed = 97)
  private lazy val tableIII = EnterpriseSim.tableIIIAccount()

  private val configs = Vector(
    Config("250 datasets, Hot/Cool, months 8, 10, 12", () => small, CostModel.hotCool, 0, Seq(8, 10, 12)),
    Config("Table III, Hot/Cool, months 6..13", () => tableIII, CostModel.hotCool, 0, 6 to 13),
    Config("Table III, Premium/Hot/Cool, months 6..13", () => tableIII, CostModel.azure3, 1, 6 to 13),
  )

  /** The forest without the line that holds its random uid. */
  private def trees(r: AccessPredictor.Run): Vector[String] =
    r.forest.toDebugString.linesIterator.filterNot(_.contains("uid=")).toVector

  private def withBroadcastThreshold[T](value: Option[String])(f: => T): T = {
    val key = "spark.sql.autoBroadcastJoinThreshold"
    val old = spark.conf.getOption(key)
    value.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    try f finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  private def cacheIsEmpty: Boolean = {
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    classic.sharedState.cacheManager.isEmpty && spark.sparkContext.getPersistentRDDs.isEmpty
  }

  for (c <- configs; (threshold, setting) <- Seq("-1" -> Some("-1"), "default" -> None)) {
    test(s"same forest, scores and tiers: ${c.name}, broadcast threshold $threshold") {
      withBroadcastThreshold(setting) {
        val acc = c.acc()
        val ref = AccessPredictorReference.run(spark, acc, c.tiers, c.hotIdx, c.trainT0s,
          testT0 = 14, horizon = 2, lags = 6, seed = 13, hotBias = 0.4)
        val got = AccessPredictor.run(spark, acc, c.tiers, c.hotIdx, c.trainT0s, testT0 = 14, horizon = 2)
        assert(got.forest.trees.length == 80)
        assert(trees(got) == trees(ref))
        assert(got.scores.sortBy(_.datasetId) == ref.scores.sortBy(_.datasetId))
        assert(got.scores.size == acc.datasets.size)
        assert(got.predicted == ref.predicted)
        assert(got.confusion == ref.confusion)
      }
    }
  }

  test("the train-models call takes at most 26 Spark jobs and leaves nothing persisted") {
    val acc = EnterpriseSim.tableIIIAccount(1)
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    val jobs = new AtomicInteger
    val marker = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some("tier-predictor") => jobs.incrementAndGet()
          case Some("tier-marker")    => marker.incrementAndGet()
          case _                      =>
        }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("tier-predictor", "trainEval")
      val (pred, conf) = AccessPredictor.trainEval(spark, acc, CostModel.hotCool, 0,
        trainT0s = 11 to 13, testT0 = 14, horizon = 2)
      sc.setJobGroup("tier-marker", "marker")
      sc.parallelize(Seq(1)).count()
      sc.clearJobGroup()
      // The listener bus is FIFO: once the marker job is seen, so are the
      // predictor's jobs before it.
      eventually(timeout(30.seconds)) { assert(marker.get == 1) }
      assert(jobs.get <= 26, s"${jobs.get} jobs")
      assert(conf.total == acc.datasets.size && pred.size == acc.datasets.size)
      assert(cacheIsEmpty)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}

object AccessPredictorDifferentialSpec {
  final case class Config(name: String, acc: () => EnterpriseSim.Account,
                          tiers: Vector[Tier], hotIdx: Int, trainT0s: Seq[Int])
}
