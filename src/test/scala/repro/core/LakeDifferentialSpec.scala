package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.functions.col
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.{SparkSpec, SynthData, SynthDataExt}
import repro.partition.Part
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration

/** `Scope.buildLake` and `DataLake.sampleParts` against `LakeReference`, the
  * `ntile` window build and `filter(isin).limit` sampler: the same rows in
  * the same files, the same catalog and the same sample row sequences.
  */
class LakeDifferentialSpec extends AnyFunSuite with SparkSpec {

  // lineitem and partsupp repeat their sort keys; 12,000 lineitem rows and
  // 1,600 partsupp rows are not multiples of 7 and 6 files; nation is one
  // file; region has exactly as many rows as files.
  private def specs = Vector(
    Scope.TableSpec("lineitem", SynthData.lineitem(spark, sf = 0.002, seed = 11), "l_orderkey", 7),
    Scope.TableSpec("partsupp", SynthDataExt.partsupp(spark, sf = 0.002, seed = 12), "ps_partkey", 6),
    Scope.TableSpec("nation", SynthDataExt.nation(spark), "n_nationkey", 1),
    Scope.TableSpec("region", SynthDataExt.region(spark), "r_regionkey", 5),
  )

  /** Runs `f` without AQE partition coalescing, so the sorted tables keep
    * many small partitions and every lineitem file spans several of them, as
    * the files of a full-size lake do.
    */
  private def uncoalesced[T](f: => T): T = {
    val key = "spark.sql.adaptive.coalescePartitions.enabled"
    val old = spark.conf.getOption(key)
    spark.conf.set(key, "false")
    try f finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  private lazy val lake = uncoalesced(Scope.buildLake(specs))
  private lazy val ref  = LakeReference.buildLake(specs)

  private def fileRows(l: Scope.DataLake): Vector[Vector[String]] =
    l.tables.map(_.df.collect().map(_.toString).sorted.toVector)

  /** Runs `f` in its own job group. Returns its result, the number of Spark
    * jobs the group started and the shuffle records their stages read.
    */
  private def tracked[T](f: => T): (T, Int, Long) = {
    val jobs = new AtomicInteger
    val marker = new AtomicInteger
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val shuffleRecords = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some("lake-tracked") => jobs.incrementAndGet(); e.stageIds.foreach(stages.add(_))
          case Some("lake-marker")  => marker.incrementAndGet()
          case _                    =>
        }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (stages.contains(e.stageInfo.stageId))
          shuffleRecords.addAndGet(e.stageInfo.taskMetrics.shuffleReadMetrics.recordsRead)
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("lake-tracked", "tracked")
      val result = f
      sc.setJobGroup("lake-marker", "marker")
      sc.parallelize(Seq(1)).count()
      // The listener bus is FIFO: once the marker job is seen, so are the
      // tracked jobs and stages before it.
      eventually(timeout(30.seconds)) { assert(marker.get == 1) }
      (result, jobs.get, shuffleRecords.get)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  /** Whole tables, single files and non-contiguous file sets. */
  private def parts: Vector[Part] = {
    val whole = lake.tables.map(t => t.fileOffset until t.fileOffset + t.nFiles)
    val files = Vector(Seq(3), Seq(0, 2, 5), Seq(7 + 1, 7 + 4), Seq(7 + 6), Seq(14 + 1, 14 + 3))
    (whole ++ files).zipWithIndex.map { case (fs, i) => Part.initial(i, fs, 1.0) }
  }

  test("the inputs repeat sort keys and leave uneven files") {
    assert(specs(0).df.select("l_orderkey").distinct().count() < specs(0).df.count())
    assert(specs(1).df.select("ps_partkey").distinct().count() < specs(1).df.count())
    assert(lake.catalog.rows.take(7).distinct.sorted == Vector(1714L, 1715L))
    assert(lake.catalog.rows.slice(14, 19) == Vector.fill(5)(1L))
    assert(lake.tables.head.df.rdd.getNumPartitions > 2 * 7)
  }

  test("every row lands in the same file, and the catalogs agree") {
    assert(lake.tables.map(_.df.schema) == ref.tables.map(_.df.schema))
    assert(lake.tables.map(t => (t.name, t.fileOffset, t.nFiles)) ==
      ref.tables.map(t => (t.name, t.fileOffset, t.nFiles)))
    assert(fileRows(lake) == fileRows(ref))
    assert(lake.catalog == ref.catalog)
  }

  test("sampleParts returns the reference sampler's row sequences") {
    // 100 rows stop inside a file; 2,500 cross a file boundary; 100,000
    // take whole partitions.
    for (cap <- Seq(1, 100, 2500, 100000); (p, s) <- parts.zip(lake.sampleParts(parts, cap))) {
      val (refRows, refSchema) = LakeReference.sampleRows(ref, p, cap)
      assert(s.schema == refSchema)
      assert(s.rows == refRows, s"part ${p.files.mkString(",")} at cap $cap")
    }
  }

  test("sampleParts takes every sample in one Spark job") {
    assert(lake.catalog.nFiles == 19) // build outside the counted group
    val (samples, jobs, shuffleRecords) = tracked(lake.sampleParts(parts, 2500))
    assert(jobs == 1)
    assert(samples.map(_.rows) == parts.map(p => LakeReference.sampleRows(ref, p, 2500)._1))
    // The job reads the cached tables: a table plan made before `.cache()`
    // would read the sort's shuffle again.
    assert(shuffleRecords == 0)
  }

  test("buildLake takes at most 4 Spark jobs per table and leaves every table fully cached") {
    // A table whose sort needs a shuffle takes the range sample, the shuffle,
    // the size count and the one job that fills the cache and sums the file
    // stats; the per-file groupBy took two more.
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet.toSet
    val (built, jobs, _) = tracked(uncoalesced(Scope.buildLake(specs)))
    try {
      assert(jobs <= 4 * specs.size, s"$jobs jobs for ${specs.size} tables")
      val cached = sc.getPersistentRDDs.keySet.toSet -- before
      assert(cached.size == specs.size)
      // getRDDStorageInfo lists only RDDs that hold cached partitions.
      val infos = sc.getRDDStorageInfo.filter(i => cached(i.id))
      assert(infos.length == specs.size)
      infos.foreach(i => assert(i.numCachedPartitions == i.numPartitions, i.name))
      assert(built.catalog == ref.catalog)
    } finally built.tables.foreach(_.df.unpersist(blocking = true))
  }

  test("two builds of one lake agree, and unpersisting the tables empties the cache") {
    // Start from an empty cache, as a benchmark pass does.
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    val Seq(a, b) = uncoalesced {
      val builds = Seq.fill(2)(Future(Scope.buildLake(specs)))
      builds.map(Await.result(_, Duration.Inf))
    }
    assert(a.catalog == b.catalog)
    assert(fileRows(a) == fileRows(b))
    val ps = parts
    assert(a.sampleParts(ps, 2500) == b.sampleParts(ps, 2500))

    (a.tables ++ b.tables).foreach(_.df.unpersist(blocking = true))
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    assert(classic.sharedState.cacheManager.isEmpty)
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }

  test("a failed build releases the tables it had cached") {
    spark.catalog.clearCache()
    val bad = specs :+ Scope.TableSpec("empty", SynthDataExt.region(spark).filter(col("r_regionkey") < 0),
      "r_regionkey", 1)
    val e = intercept[IllegalArgumentException](Scope.buildLake(bad))
    assert(e.getMessage.contains("empty"))
    val classic = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    assert(classic.sharedState.cacheManager.isEmpty)
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }
}
