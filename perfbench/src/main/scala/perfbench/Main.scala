package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Runs one workload: set-up (Spark session, inputs, one untimed pass), then
  * passes until `--seconds` have been measured. Prints every metric by name
  * with its unit and, as the last line, the result object.
  *
  * With `--trace 1` passes alternate untraced and traced; the traced ones
  * record spans around each layer call and give the per-layer metrics, the
  * untraced ones give the tracing overhead.
  */
object Main {

  final case class Opts(workload: String = "", seed: Long = 1, seconds: Double = 15,
                        trace: Boolean = false, outDir: String = "perfbench/out",
                        fingerprintFile: Option[String] = None)

  /** Spark threads (`local[N]`), capped at the processors the JVM sees. */
  val Threads = 4

  /** Layers with spans: span name and the prefix of its metrics. */
  val layers: Vector[(String, String)] = Vector(
    "scope.build_lake"            -> "scope.build_lake.",
    "scope.initial_partitions"    -> "scope.initial_partitions.",
    "partition.gpart"             -> "partition.gpart.",
    "scope.prepare"               -> "scope.prepare.",
    "core.optassign"              -> "core.optassign.",
    "compress.sampling"           -> "compress.sampling.",
    "compress.compredict.fit"     -> "compress.compredict.fit_",
    "compress.compredict.predict" -> "compress.compredict.predict_",
    "tiering.access_predictor"    -> "tiering.access_predictor.",
  )

  /** Work counts each workload reports (0 where a workload skips the layer). */
  val countMetrics: Vector[(String, String)] = Vector(
    "scope.build_lake.files" -> "count", "scope.build_lake.rows" -> "count",
    "scope.initial_partitions.parts" -> "count",
    "partition.gpart.parts_in" -> "count", "partition.gpart.parts_out" -> "count",
    "partition.gpart.space_rows" -> "count", "partition.gpart.read_cost" -> "row-accesses",
    "partition.gpart.duplication" -> "ratio",
    "scope.prepare.parts" -> "count",
    "core.optassign.parts" -> "count", "core.optassign.options" -> "count",
    "core.optassign.moved" -> "count", "core.optassign.gap_pct" -> "%",
    "compress.sampling.samples" -> "count", "compress.sampling.rows" -> "count",
    "compress.compredict.examples" -> "count", "compress.compredict.ratio_mape_pct" -> "%",
    "tiering.access_predictor.datasets" -> "count", "tiering.access_predictor.accuracy" -> "ratio",
  )

  /** Every per-layer metric, in report order, with its unit. */
  val perLayer: Vector[(String, String)] =
    layers.flatMap { case (_, p) => Vector(s"${p}s" -> "s", s"${p}self_s" -> "s", s"${p}jobs" -> "count") } ++
      countMetrics ++ Vector(
        "pass.wall_s" -> "s", "pass.untraced_wall_s" -> "s", "pass.unattributed_s" -> "s",
        "pass.unattributed_jobs" -> "count", "pass.count" -> "count", "trace.overhead_s" -> "s",
        "trace.spans" -> "count", "setup.spark_s" -> "s", "setup.inputs_s" -> "s",
        "setup.first_pass_s" -> "s", "spark.jobs" -> "count", "jvm.gc_s" -> "s",
        "jvm.heap_peak_mb" -> "MB", "run.fail_rate" -> "ratio")

  /** Passes measured at least, whatever `--seconds` says. */
  val MinPasses = 2

  /** No new pass starts after this much JVM uptime, so a run ends in time. */
  val MaxUptimeS = 140.0

  val endToEnd: Vector[(String, String)] =
    Vector("setup_s" -> "s", "wall_s" -> "s", "plan_cost_cents" -> "cents")

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest         => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest             => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest          => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest            => parse(rest, o.copy(trace = v == "1"))
    case "--out-dir" :: v :: rest          => parse(rest, o.copy(outDir = v))
    case "--fingerprint-file" :: v :: rest => parse(rest, o.copy(fingerprintFile = Some(v)))
    case Nil                               => o
    case other => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args.toList)); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def median(xs: Iterable[Double]): Double = {
    val s = xs.toVector.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def secondsSince(ns: Long): Double = (System.nanoTime() - ns) / 1e9

  final case class PassRecord(index: Int, traced: Boolean, wallS: Double, jobs: Int, gcS: Double,
                              report: Option[PassReport], layer: Map[String, Double])

  def run(o: Opts): Unit = {
    require(Workload.names.contains(o.workload),
      s"--workload must be one of ${Workload.names.mkString(", ")}")
    val outDir = Paths.get(o.outDir)
    Files.createDirectories(outDir)
    val threads = math.min(Threads, Runtime.getRuntime.availableProcessors())

    // ---- set-up: Spark session, inputs, one untimed pass ----
    val s0 = System.nanoTime()
    val spark: Option[SparkSession] =
      if (Workload.usesSpark(o.workload)) Some(session(threads, outDir)) else None
    val jobLog = new JobLog
    spark.foreach(_.sparkContext.addSparkListener(jobLog))
    val sparkS = secondsSince(s0)
    val i0 = System.nanoTime()
    val wl = Workload(o.workload, o.seed, spark.get)
    val inputsS = secondsSince(i0)

    val tracer   = new Tracer(false)
    var attempted = 0L
    var failed    = 0L
    val failures  = mutable.ArrayBuffer.empty[String]
    val reference = mutable.LinkedHashMap.empty[String, String]
    // Old-generation peak: what a pass keeps alive past young collections.
    // (Young pools fill the fixed heap whatever the pass retains.)
    val oldGen   = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.getName.contains("Old Gen"))
    var heapPeak = 0L
    def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

    def check(name: String, ok: Boolean, pass: Int): Unit = {
      attempted += 1
      if (!ok) { failed += 1; failures += s"pass $pass: $name" }
    }

    /** Values that must repeat: compared with every earlier pass and, via the
      * fingerprint file, with earlier invocations on the same seed.
      */
    def guard(pass: Int, values: Seq[(String, String)]): Unit = {
      val mismatched = values.filter { case (k, v) => reference.get(k).exists(_ != v) }.map(_._1)
      check("repeats_exactly" + (if (mismatched.isEmpty) "" else mismatched.mkString("(", ",", ")")),
        mismatched.isEmpty, pass)
      values.foreach { case (k, v) => reference.getOrElseUpdate(k, v) }
    }

    def runPass(index: Int, traced: Boolean): PassRecord = {
      spark.foreach { s =>
        val classic = s.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
        check("cache_empty_before_pass",
          classic.sharedState.cacheManager.isEmpty && s.sparkContext.getPersistentRDDs.isEmpty, index)
      }
      System.gc() // every pass starts from the same, collected heap
      oldGen.foreach(_.resetPeakUsage())
      tracer.enabled = traced
      tracer.pass = index
      val gc0 = gcMs
      val ms0 = System.currentTimeMillis()
      val ns0 = System.nanoTime()
      val out =
        try Some(tracer.span("pass")(wl.timed(tracer)))
        catch { case NonFatal(e) =>
          e.printStackTrace()
          check(s"no_exception(${e.getClass.getSimpleName})", ok = false, index)
          None
        }
      val wallS = secondsSince(ns0)
      val ms1   = System.currentTimeMillis()
      val gcS   = (gcMs - gc0) / 1e3
      heapPeak = math.max(heapPeak, oldGen.map(_.getPeakUsage.getUsed).sum)
      tracer.enabled = false
      spark.foreach(s => PerfbenchBus.drain(s.sparkContext))
      val jobs = jobLog.within(ms0, ms1 + 1)
      val report = out.flatMap { r =>
        try {
          wl.release(r)
          Some(wl.inspect(r))
        } catch { case NonFatal(e) =>
          e.printStackTrace()
          check(s"inspect_no_exception(${e.getClass.getSimpleName})", ok = false, index)
          None
        }
      }
      if (out.isEmpty) spark.foreach(_.catalog.clearCache())
      report.foreach(_.checks.foreach { case (n, ok) => check(n, ok, index) })

      val layer = if (traced) layerTotals(tracer.spansOf(index), jobs) else Map.empty[String, Double]
      val repeat = report.toVector.flatMap(_.outputs.map { case (k, v) => s"out.$k" -> v }) ++
        spark.map(_ => "jobs.pass" -> jobs.size.toString) ++
        layers.collect { case (_, p) if traced && spark.isDefined => s"jobs.$p" -> layer(s"${p}jobs").toLong.toString }
      if (report.isDefined) guard(index, repeat)
      PassRecord(index, traced, wallS, jobs.size, gcS, report, layer)
    }

    val warm = runPass(0, traced = false)
    val setupS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3

    // ---- measured passes ----
    val m0 = System.nanoTime()
    val passes = mutable.ArrayBuffer.empty[PassRecord]
    def enough: Boolean =
      secondsSince(m0) >= o.seconds && passes.size >= MinPasses
    def outOfTime: Boolean = ManagementFactory.getRuntimeMXBean.getUptime / 1e3 > MaxUptimeS
    while (!enough && !outOfTime && failed < 50) {
      val index = passes.size + 1
      passes += runPass(index, traced = o.trace && index % 2 == 0)
    }

    // ---- cross-invocation guard ----
    o.fingerprintFile.foreach { f =>
      val path = Paths.get(f)
      val earlier =
        if (Files.exists(path))
          Files.readAllLines(path, UTF_8).asScala.flatMap { l =>
            l.split("\t", 2) match { case Array(k, v) => Some(k -> v); case _ => None }
          }.toMap
        else Map.empty[String, String]
      val differ = reference.collect { case (k, v) if earlier.get(k).exists(_ != v) => k }
      check("repeats_across_invocations" + (if (differ.isEmpty) "" else differ.mkString("(", ",", ")")),
        differ.isEmpty, -1)
      val merged = earlier ++ reference.filterNot { case (k, _) => earlier.contains(k) }
      Files.createDirectories(path.toAbsolutePath.getParent)
      Files.write(path, merged.toVector.sortBy(_._1).map { case (k, v) => s"$k\t$v" }.asJava, UTF_8)
    }

    // ---- metrics ----
    val untraced = passes.filterNot(_.traced)
    val traced   = passes.filter(_.traced)
    val reports  = passes.flatMap(_.report)
    val planCost = median(untraced.flatMap(_.report).map(_.planCostCents))
    val e2e = Map(
      "setup_s"         -> setupS,
      "wall_s"          -> median(untraced.map(_.wallS)),
      "plan_cost_cents" -> planCost,
    )
    val lastCounts = reports.lastOption.map(_.counts.toMap).getOrElse(Map.empty)
    val layerMetrics: Map[String, Double] =
      if (!o.trace) Map.empty
      else {
        val keys = traced.flatMap(_.layer.keys).distinct
        val layerMedians = keys.map(k => k -> median(traced.map(_.layer.getOrElse(k, 0.0)))).toMap
        val tracedWall   = median(traced.map(_.wallS))
        val untracedWall = median(untraced.map(_.wallS))
        perLayer.map(_._1).map(k => k -> 0.0).toMap ++ countMetrics.map { case (k, _) =>
          k -> lastCounts.getOrElse(k, 0.0) } ++ layerMedians ++ Map(
          "pass.wall_s"          -> tracedWall,
          "pass.untraced_wall_s" -> untracedWall,
          "pass.count"           -> passes.size.toDouble,
          "trace.overhead_s"     -> (tracedWall - untracedWall),
          "setup.spark_s"        -> sparkS,
          "setup.inputs_s"       -> inputsS,
          "setup.first_pass_s"   -> warm.wallS,
          "spark.jobs"           -> median(passes.map(_.jobs.toDouble)),
          "jvm.gc_s"             -> median(passes.map(_.gcS)),
          "jvm.heap_peak_mb"     -> heapPeak / 1048576.0,
          "run.fail_rate"        -> failed.toDouble / math.max(1L, attempted),
        )
      }
    val chosen = if (o.trace) perLayer else endToEnd
    val values = if (o.trace) layerMetrics else e2e

    val env = Vector(
      "workload" -> o.workload, "seed" -> o.seed.toString, "seconds" -> o.seconds.toString,
      "trace" -> (if (o.trace) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "spark_master" -> spark.map(_.sparkContext.master).getOrElse("none (driver only)"),
      "spark_threads" -> spark.map(_ => threads.toString).getOrElse("0"),
      "spark_shuffle_partitions" -> spark.map(_.conf.get("spark.sql.shuffle.partitions")).getOrElse("-"),
      "spark_version" -> spark.map(_.version).getOrElse("-"),
      "driver_heap" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(a => a.startsWith("-Xmx") || a.startsWith("-Xms")).mkString(" "),
      "driver_heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    ) ++ wl.settings

    println("# env " + Json.obj(env.map { case (k, v) => k -> Json.str(v) }))
    println(f"# passes: set-up ${warm.wallS}%.3f s, then " +
      passes.map(p => f"${p.wallS}%.3f${if (p.traced) "t" else ""}").mkString(" ") + " s")
    failures.foreach(f => println(s"# FAILED $f"))
    chosen.foreach { case (k, unit) => println(f"$k%-40s ${values(k)}%.6f $unit") }
    println(f"${"fail_rate"}%-40s ${failed.toDouble / math.max(1L, attempted)}%.6f ratio ($failed of $attempted)")

    spark.foreach(_.stop())

    val metricsJson = Json.obj(chosen.map { case (k, unit) =>
      k -> Json.obj(Vector("value" -> Json.num(values(k)), "unit" -> Json.str(unit))) })
    val result = Json.obj(Vector(
      "correct" -> (if (failed == 0) "true" else "false"),
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> metricsJson,
    ))
    writeRecord(outDir.resolve(s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json"),
      env, warm +: passes.toVector, tracer, jobLog, failures.toVector, result)
    println(result)
  }

  /** Per-layer totals of one traced pass: inclusive seconds, self seconds and
    * the Spark jobs credited to each layer's spans and their children.
    */
  def layerTotals(spans: Vector[Span], jobs: Vector[(Int, Long)]): Map[String, Double] = {
    val credits = Attribution.creditJobs(spans, jobs)
    val perLayer = layers.flatMap { case (name, p) =>
      val own = spans.filter(_.name == name)
      Vector(
        s"${p}s"      -> own.map(_.seconds).sum,
        s"${p}self_s" -> own.map(Attribution.selfSeconds(_, spans)).sum,
        s"${p}jobs"   -> own.map(s => Attribution.subtree(s, spans).toSeq.map(credits.getOrElse(_, 0)).sum).sum.toDouble,
      )
    }
    val pass = spans.find(_.name == "pass")
    perLayer.toMap ++ Map(
      "pass.unattributed_s"    -> pass.map(Attribution.selfSeconds(_, spans)).getOrElse(0.0),
      "pass.unattributed_jobs" -> pass.map(p => credits.getOrElse(p.id, 0)).getOrElse(0).toDouble,
      "trace.spans"            -> spans.size.toDouble,
    )
  }

  def session(threads: Int, outDir: Path): SparkSession = {
    val local = outDir.resolve("spark-local").toAbsolutePath
    Files.createDirectories(local)
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", local.toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }

  /** The run record: environment, passes, spans and job starts. */
  private def writeRecord(path: Path, env: Vector[(String, String)], passes: Vector[PassRecord],
                          tracer: Tracer, jobLog: JobLog, failures: Vector[String], result: String): Unit = {
    val passJson = passes.map { p =>
      Json.obj(Vector("index" -> p.index.toString, "traced" -> p.traced.toString,
        "wall_s" -> Json.num(p.wallS), "jobs" -> p.jobs.toString, "gc_s" -> Json.num(p.gcS),
        "plan_cost_cents" -> Json.num(p.report.map(_.planCostCents).getOrElse(Double.NaN)),
        "layers" -> Json.obj(p.layer.toVector.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })))
    }
    val spanJson = tracer.spans.map { s =>
      Json.obj(Vector("id" -> s.id.toString, "name" -> Json.str(s.name), "parent" -> s.parent.toString,
        "pass" -> s.pass.toString, "start_ms" -> s.startMs.toString, "end_ms" -> s.endMs.toString,
        "seconds" -> Json.num(s.seconds)))
    }
    val jobJson = jobLog.all.map { case (id, t) => s"[$id,$t]" }
    val record = Json.obj(Vector(
      "env" -> Json.obj(env.map { case (k, v) => k -> Json.str(v) }),
      "result" -> result,
      "failures" -> Json.arr(failures.map(Json.str)),
      "passes" -> Json.arr(passJson),
      "spans" -> Json.arr(spanJson),
      "job_starts" -> Json.arr(jobJson),
    ))
    Files.write(path, record.getBytes(UTF_8))
  }
}

/** Minimal JSON text builder: values are passed already rendered. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
