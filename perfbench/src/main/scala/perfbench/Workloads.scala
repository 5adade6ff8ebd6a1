package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{SynthData, SynthDataExt}
import repro.compress._
import repro.core._
import repro.exp.{ExpCompredict, ExpPipeline, ExpTiering}
import repro.partition._
import repro.tiering._
import scala.util.Random

/** What one pass produced, read after the timed calls returned.
  *
  * @param planCostCents the plan's cost in cents (the end-to-end metric)
  * @param counts        per-layer work counts, by metric name
  * @param checks        correctness checks, one operation each
  * @param outputs       values that must repeat exactly across passes and
  *                      across invocations with the same seed
  */
final case class PassReport(planCostCents: Double, counts: Vector[(String, Double)],
                            checks: Vector[(String, Boolean)], outputs: Vector[(String, String)])

/** A workload builds its inputs from the seed when constructed (set-up),
  * then runs any number of passes. `timed` holds only calls into the
  * program; `inspect` and `release` run outside the timed interval.
  */
abstract class Workload {
  type Out
  def settings: Vector[(String, String)]
  def timed(t: Tracer): Out
  def inspect(out: Out): PassReport
  def release(out: Out): Unit = ()
}

object Workload {
  val names: Vector[String] = Vector("lake-plan", "solver-scale", "train-models")
  def usesSpark(name: String): Boolean = name != "solver-scale"

  def apply(name: String, seed: Long, spark: => SparkSession): Workload = name match {
    case "lake-plan"    => new LakePlan(spark, seed)
    case "solver-scale" => new SolverScale(seed)
    case "train-models" => new TrainModels(spark, seed)
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Exact text of a double, so repeated values compare bit for bit. */
  def exact(d: Double): String = java.lang.Double.toString(d)

  def finiteNonNeg(d: Double): Boolean = !d.isNaN && !d.isInfinite && d >= 0

  /** G-PART covers each initial partition exactly once. */
  def coversOnce(initial: Seq[Part], merged: Seq[Part]): Boolean = {
    val members = merged.toVector.flatMap(_.members.toVector)
    members.size == initial.size && members.toSet == initial.map(_.id).toSet
  }

  def gpartCounts(initial: Seq[Part], merged: Seq[Part], cat: FileCatalog): Vector[(String, Double)] =
    Vector(
      "partition.gpart.parts_in"    -> initial.size.toDouble,
      "partition.gpart.parts_out"   -> merged.size.toDouble,
      "partition.gpart.space_rows"  -> Part.totalSpaceRows(merged, cat).toDouble,
      "partition.gpart.read_cost"   -> Part.totalCost(merged, cat),
      "partition.gpart.duplication" -> Part.duplication(merged, cat),
    )
}

/** Table X (TPC-H 100 GB) end to end at SF=0.1: the Spark layers dominate.
  * The query log is Table X's own (its families seed); the benchmark seed
  * drives the row generators, so every seed plans a lake of the same shape
  * and size with different contents.
  */
final class LakePlan(spark: SparkSession, seed: Long) extends Workload {
  val sf  = 0.1
  val cfg = ExpPipeline.tpch100

  /** `SynthDataExt.allTables` with seeded generators (each table's seeds
    * 100 apart), split into files as `ExpPipeline.buildLake` splits them.
    */
  val specs: Vector[Scope.TableSpec] = {
    val base = seed * 1000
    Vector(
      ("lineitem", SynthData.lineitem(spark, sf, base), "l_orderkey"),
      ("orders",   SynthData.orders(spark, sf, base + 100), "o_orderkey"),
      ("customer", SynthData.customer(spark, sf, base + 200), "c_custkey"),
      ("part",     SynthData.part(spark, sf, base + 300), "p_partkey"),
      ("supplier", SynthDataExt.supplier(spark, sf, base + 400), "s_suppkey"),
      ("partsupp", SynthDataExt.partsupp(spark, sf, base + 500), "ps_partkey"),
      ("nation",   SynthDataExt.nation(spark), "n_nationkey"),
      ("region",   SynthDataExt.region(spark), "r_regionkey"),
    ).map { case (name, df, sortCol) =>
      val nFiles = name match {
        case "lineitem" | "partsupp" => cfg.filesPerBigTable
        case "nation" | "region"     => 1
        case _                       => math.max(2, cfg.filesPerBigTable / 2)
      }
      Scope.TableSpec(name, df, sortCol, nFiles)
    }
  }

  /** Rows the generators produce, counted once here for the catalog check. */
  val generatedRows: Long = specs.map(_.df.count()).sum

  def settings = Vector("sf" -> sf.toString, "config" -> cfg.name,
    "families_per_table" -> cfg.familiesPerTable.toString, "families_seed" -> cfg.seed.toString,
    "data_seed_base" -> (seed * 1000).toString, "sample_cap" -> cfg.sampleCap.toString)

  final case class Out(lake: Scope.DataLake, initial: Vector[Part], whole: Vector[Part],
                       merged: Vector[Part], prepWhole: Scope.PreparedParts,
                       prepMerged: Scope.PreparedParts, reports: Vector[Scope.PolicyReport])

  /** The steps of `ExpPipeline.run` and `Scope.runAll`, one span per call. */
  def timed(t: Tracer): Out = {
    val lake = t.span("scope.build_lake")(Scope.buildLake(specs))
    val (initial, whole) = t.span("scope.initial_partitions") {
      val initial = Scope.initialPartitions(lake, cfg.familiesPerTable, cfg.zipfAlpha,
        cfg.freqScale, cfg.seed)
      (initial, Scope.wholeTableParts(lake, initial))
    }
    val gcfg = GPartConfig(rhoC = 3.0, rhoCAbs = 50.0 * cfg.freqScale,
      sThreshRows = math.max(1L, lake.catalog.rows.sum / 12))
    val merged     = t.span("partition.gpart")(GPart.merge(initial, lake.catalog, gcfg))
    val bytesScale = cfg.targetGB / (lake.catalog.bytes.sum / 1e9)
    val prepWhole  = t.span("scope.prepare")(
      Scope.prepare(lake, whole, bytesScale, compression = true, cfg.sampleCap))
    val prepMerged = t.span("scope.prepare")(
      Scope.prepare(lake, merged, bytesScale, compression = true, cfg.sampleCap))
    val reports = Scope.variants.map { v =>
      t.span("core.optassign")(
        Scope.runVariant(v, if (v.partitioned) prepMerged else prepWhole, ExpPipeline.Months))
    }
    Out(lake, initial, whole, merged, prepWhole, prepMerged, reports)
  }

  /** Pass isolation: the next pass must build its lake from scratch. */
  override def release(out: Out): Unit = out.lake.tables.foreach(_.df.unpersist(blocking = true))

  /** The instance `runVariant` solves for a row, rebuilt for the lower bound. */
  private def instanceOf(v: Scope.Variant, prepared: Scope.PreparedParts): OptAssignInstance = {
    val stats = prepared.stats.map(s => if (v.compression) s else s.copy(codecPerfs = Vector(s.codecPerfs.head)))
    val raw   = stats.map(_.sizeGB).sum
    val caps  = v.capacityFracs match {
      case Some(fr) => fr.map(f => if (f.isInfinity) Double.PositiveInfinity else f * raw)
      case None     => Vector.fill(v.tiers.length)(Double.PositiveInfinity)
    }
    OptAssignInstance(stats, v.tiers, caps, v.weights, ExpPipeline.Months)
  }

  def inspect(out: Out): PassReport = {
    import out._
    val variants = Scope.variants
    val byKey    = variants.map(_.key).zip(reports).toMap
    val tierNames = CostModel.azure3.map(_.name)
    val rowChecks = variants.zip(reports).flatMap { case (v, r) =>
      val n = if (v.partitioned) merged.size else whole.size
      Vector(
        s"${v.key}.costs_finite" ->
          Seq(r.storageCost, r.decompCost, r.readCost).forall(Workload.finiteNonNeg),
        s"${v.key}.tiers_cover_parts" -> (r.tierCounts.values.sum == n))
    }
    val checks = Vector(
      "catalog_rows" -> (lake.catalog.rows.sum == generatedRows),
      "gpart_covers_once" -> Workload.coversOnce(initial, merged),
      "eleven_reports" -> (reports.size == 11),
    ) ++ rowChecks

    // Gap of the "SCOPe (Total cost focused)" row against the Theorem 3
    // greedy, a lower bound at weights (1,1,1). runVariant returns tier
    // counts, not assignments, so `moved` counts tier-count differences: a
    // lower bound on the partitions the capacity repair moved.
    val total = variants.find(_.key == "scope-total").get
    val inst  = instanceOf(total, prepMerged)
    val greedy = OptAssign.greedyUnbounded(inst).getOrElse(Vector.empty)
    val lb     = OptAssign.totalCost(inst, greedy)
    val greedyCounts = greedy.groupBy(a => inst.tiers(a.tier).name).view.mapValues(_.size).toMap
    val moved = tierNames.map(n =>
      math.abs(greedyCounts.getOrElse(n, 0) - byKey("scope-total").tierCounts.getOrElse(n, 0))).sum / 2
    val optParts = variants.map(v => if (v.partitioned) merged.size else whole.size)
    val options  = variants.zip(optParts).map { case (v, n) => n * v.tiers.size * (if (v.compression) 4 else 1) }

    val exactRows = Vector("default", "hermes", "part-premium", "part-tier").flatMap { k =>
      val r = byKey(k)
      Vector(s"$k.scheme" -> r.scheme(tierNames), s"$k.storage" -> Workload.exact(r.storageCost),
        s"$k.read" -> Workload.exact(r.readCost), s"$k.decomp" -> Workload.exact(r.decompCost))
    }
    val outputs = Vector(
      "catalog.rows"  -> lake.catalog.rows.sum.toString,
      "catalog.bytes" -> lake.catalog.bytes.sum.toString,
      "merged"        -> merged.map(_.files.mkString("-")).mkString(","),
    ) ++ exactRows

    val counts = Vector(
      "scope.build_lake.files"         -> lake.catalog.nFiles.toDouble,
      "scope.build_lake.rows"          -> lake.catalog.rows.sum.toDouble,
      "scope.initial_partitions.parts" -> initial.size.toDouble,
      "scope.prepare.parts"            -> (whole.size + merged.size).toDouble,
      "core.optassign.parts"           -> optParts.sum.toDouble,
      "core.optassign.options"         -> options.sum.toDouble,
      "core.optassign.moved"           -> moved.toDouble,
      "core.optassign.gap_pct"         -> (byKey("scope-total").totalCost - lb) / lb * 100.0,
    ) ++ Workload.gpartCounts(initial, merged, lake.catalog)
    PassReport(byKey("scope-total").totalCost, counts, checks, outputs)
  }
}

/** Driver-side solvers only: G-PART over many range families, and OPTASSIGN
  * with capacities tight enough that the repair loop runs.
  */
final class SolverScale(seed: Long) extends Workload {
  val nFiles = 1600; val nFamilies = 800; val maxSpan = 40
  val catalog  = QueryWorkload.syntheticCatalog(nFiles, rowsPerFile = 10000, bytesPerRow = 100, seed)
  val families = QueryWorkload.rangeFamilies(nFiles, nFamilies, maxSpan, zipfAlpha = 1.0, seed + 1)
  val gcfg     = GPartConfig(rhoC = 3.0, rhoCAbs = 50.0, sThreshRows = catalog.rows.sum / 12)
  val inst     = SolverGen.instance(seed + 2)

  def settings = Vector("files" -> nFiles.toString, "families" -> nFamilies.toString,
    "max_span_files" -> maxSpan.toString, "zipf_alpha" -> "1.0",
    "optassign_parts" -> inst.parts.size.toString, "tiers" -> inst.tiers.map(_.name).mkString("/"),
    "codecs" -> inst.parts.head.codecPerfs.size.toString,
    "capacity_fracs" -> SolverGen.CapFracs.mkString("/"), "instance_seed" -> (seed + 2).toString)

  final case class Out(merged: Vector[Part], solution: Option[Vector[Assignment]])

  def timed(t: Tracer): Out = {
    val merged   = t.span("partition.gpart")(GPart.merge(families, catalog, gcfg))
    val solution = t.span("core.optassign")(OptAssign.solve(inst))
    Out(merged, solution)
  }

  def inspect(out: Out): PassReport = {
    val greedy = OptAssign.greedyUnbounded(inst).getOrElse(Vector.empty)
    val lb     = OptAssign.totalCost(inst, greedy)
    val sol    = out.solution.getOrElse(Vector.empty)
    val cost   = if (out.solution.isDefined) OptAssign.totalCost(inst, sol) else Double.NaN
    val moved  = sol.zip(greedy).count { case (a, g) => a.tier != g.tier || a.codec != g.codec }
    val checks = Vector(
      "gpart_covers_once"   -> Workload.coversOnce(families, out.merged),
      "optassign_solved"    -> out.solution.isDefined,
      "optassign_feasible"  -> (out.solution.isDefined && OptAssign.feasible(inst, sol)),
      "cost_at_least_bound" -> (cost >= lb * (1 - 1e-12)),
    )
    val counts = Vector(
      "core.optassign.parts"   -> inst.parts.size.toDouble,
      "core.optassign.options" -> inst.parts.map(_.codecPerfs.size * inst.tiers.size).sum.toDouble,
      "core.optassign.moved"   -> moved.toDouble,
      "core.optassign.gap_pct" -> (cost - lb) / lb * 100.0,
    ) ++ Workload.gpartCounts(families, out.merged, catalog)
    val outputs = Vector(
      "objective" -> Workload.exact(cost),
      "moved"     -> moved.toString,
      "merged"    -> out.merged.map(_.files.mkString("-")).mkString(","),
    )
    PassReport(cost, counts, checks, outputs)
  }
}

/** The benchmark's own OPTASSIGN instances: new partitions, latency SLAs
  * unbounded, Premium and Hot capacities a small share of the raw volume.
  * Sizes (1-1000 GB) and accesses (1-20,000) are log-uniform, laid out as a
  * full grid of size bands x access bands at the band centres; the seed
  * draws each partition's codec performance, +-10% around fixed centres.
  * Every seed thus yields an instance of the same difficulty and a total
  * cost within a few percent; a plain random draw lets a few large, hot
  * partitions swing both by tens of percent.
  */
object SolverGen {
  val SizeBands = 30; val AccessBands = 20
  val CapFracs: Vector[Double] = Vector(0.02, 0.05, Double.PositiveInfinity)

  /** (ratio, decompression s/GB) centres of the three compressing codecs. */
  private val codecCentres = Vector((3.5, 6.0), (2.0, 1.5), (2.2, 1.0))

  def instance(seed: Long): OptAssignInstance = {
    val rng = new Random(seed)
    def logUniform(lo: Double, hi: Double, band: Int, bands: Int): Double =
      math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * (band + 0.5) / bands)
    val cells = (for (s <- 0 until SizeBands; a <- 0 until AccessBands) yield (s, a)).toVector
    val parts = cells.zipWithIndex.map { case ((s, a), i) =>
      val perfs = CodecPerf.identity +: codecCentres.map { case (r, d) =>
        CodecPerf(r * (0.9 + 0.2 * rng.nextDouble()), d * (0.9 + 0.2 * rng.nextDouble()))
      }
      PartitionStat(i, logUniform(1.0, 1000.0, s, SizeBands), logUniform(1.0, 20000.0, a, AccessBands),
        latencySlaSec = Double.PositiveInfinity, currentTier = -1, currentCodec = -1, codecPerfs = perfs)
    }
    val raw = parts.map(_.sizeGB).sum
    OptAssignInstance(parts, CostModel.azure3,
      CapFracs.map(f => if (f.isInfinity) f else f * raw), CostWeights(), months = 5.5)
  }
}

/** The MLlib layers: COMPREDICT on query-result samples and the tier
  * predictor of Table III. The query templates use Table VI's query seed;
  * the benchmark seed drives the row generators of the four source tables,
  * the train/test split and the simulated account.
  */
final class TrainModels(spark: SparkSession, seed: Long) extends Workload {
  val sf = 0.1; val queriesPerTable = 10; val maxRows = 4000; val querySeed = 6L
  val trainMonths: Range = 11 to 13
  val testT0  = ExpTiering.T0 + 2
  val horizon = 2

  /** `ExpCompredict.sourceTables` (uniform) with seeded generators. */
  val tables: Vector[DataFrame] = {
    val base = seed * 1000
    Vector(SynthData.lineitem(spark, sf, base), SynthData.orders(spark, sf, base + 100),
      SynthData.customer(spark, sf, base + 200), SynthData.part(spark, sf, base + 300))
  }
  val account = EnterpriseSim.tableIIIAccount(seed)

  def settings = Vector("sf" -> sf.toString, "queries_per_table" -> queriesPerTable.toString,
    "max_rows" -> maxRows.toString, "min_sample_rows" -> ExpCompredict.MinSampleRows.toString,
    "layout" -> "columnar", "query_seed" -> querySeed.toString,
    "data_seed_base" -> (seed * 1000).toString, "split_seed" -> seed.toString,
    "account_seed" -> seed.toString, "datasets" -> account.datasets.size.toString,
    "train_months" -> s"${trainMonths.head}-${trainMonths.last}", "test_month" -> testT0.toString)

  final case class Out(train: Vector[Sampling.Sample], test: Vector[Sampling.Sample],
                       predicted: Vector[Vector[CodecPerf]], tiers: Map[Int, Int],
                       confusion: AccessPredictor.Confusion)

  def timed(t: Tracer): Out = {
    // The loop of ExpCompredict.querySamples, calling Sampling directly.
    val samples = t.span("compress.sampling") {
      tables.zipWithIndex.flatMap { case (df, i) =>
        val cached = df.cache()
        val qs = Sampling.generateQueries(cached, queriesPerTable, querySeed + i)
        val ss = Sampling.querySamples(cached, qs, maxRows)
        cached.unpersist()
        ss
      }.filter(_.rows.length >= ExpCompredict.MinSampleRows)
    }
    val shuffled = new Random(seed).shuffle(samples)
    val (test, train) = shuffled.splitAt(math.max(3, shuffled.size / 4))
    val predictor = t.span("compress.compredict.fit")(ComPredict.trainPredictor(train, Layouts.Columnar))
    val predicted = t.span("compress.compredict.predict")(test.map(s => predictor.predict(s.rows, s.schema)))
    val (tiers, confusion) = t.span("tiering.access_predictor")(
      AccessPredictor.trainEval(spark, account, CostModel.hotCool, hotIdx = 0,
        trainT0s = trainMonths, testT0 = testT0, horizon = horizon))
    Out(train, test, predicted, tiers, confusion)
  }

  def inspect(out: Out): PassReport = {
    import out._
    // Ground truth ratios, measured outside the timed calls.
    val errors = test.zip(predicted).flatMap { case (s, perfs) =>
      Codecs.compressing.zipWithIndex.map { case (c, k) =>
        val actual = CompressionMeasure.measureRows(s.rows, Layouts.Columnar, c).ratio
        math.abs(perfs(k + 1).ratio - actual) / actual
      }
    }
    val mape = errors.sum / math.max(1, errors.size) * 100.0
    val known = Tiering.knownAccesses(account, testT0, horizon)
    val inst  = Tiering.instance(account, CostModel.hotCool, hotIdx = 0, horizon, known)
    val plan  = account.datasets.map(ds => Assignment(ds.id, tiers.getOrElse(ds.id, 0), 0))
    val cost  = Tiering.actualCost(inst, plan, known)
    val checks = Vector(
      "samples_split"       -> (train.size >= 2 && test.nonEmpty),
      "predictions_valid"   -> predicted.forall(_.forall(p => p.ratio >= 1.0 && Workload.finiteNonNeg(p.decompSecPerGB))),
      "confusion_total"     -> (confusion.total == account.datasets.size),
      "every_dataset_tiered" -> (tiers.size == account.datasets.size),
    )
    val all = train ++ test
    val counts = Vector(
      "compress.sampling.samples"             -> all.size.toDouble,
      "compress.sampling.rows"                -> all.map(_.rows.size).sum.toDouble,
      "compress.compredict.examples"          -> (train.size * Codecs.compressing.size).toDouble,
      "compress.compredict.ratio_mape_pct"    -> mape,
      "tiering.access_predictor.datasets"     -> confusion.total.toDouble,
      "tiering.access_predictor.accuracy"     -> confusion.accuracy,
    )
    val outputs = Vector(
      "samples"        -> all.map(s => s"${s.tag}:${s.rows.size}").mkString(","),
      "ratio_mape_pct" -> Workload.exact(mape),
      "tier_accuracy"  -> Workload.exact(confusion.accuracy),
      "plan_cost"      -> Workload.exact(cost),
    )
    PassReport(cost, counts, checks, outputs)
  }
}
