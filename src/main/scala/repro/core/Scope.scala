package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StructType}
import repro.Concurrently
import repro.compress._
import repro.partition._
import scala.util.Failure

/** SCOPe (Section VII): the unified pipeline
  *   query logs -> initial partitions -> G-PART merge -> COMPREDICT (or
  *   ground-truth compression) -> OPTASSIGN -> tier + codec assignment,
  * plus the policy variants of Tables IX–XI (Default / Ares / Hermes /
  * HCompress adaptations, with and without G-PART).
  */
object Scope {

  /** One lake table to be range-split into `nFiles` files on `sortCol`. */
  final case class TableSpec(name: String, df: DataFrame, sortCol: String, nFiles: Int) {
    require(nFiles >= 1, s"table $name: nFiles must be at least 1, got $nFiles")
    require(df.columns.contains(sortCol),
      s"table $name: sort column $sortCol is not one of ${df.columns.mkString(", ")}")
    require(!df.columns.contains("file_id"), s"table $name already has a file_id column")
  }

  /** A table after file splitting: `df` carries a global `file_id` column. */
  final case class LakeTable(name: String, df: DataFrame, fileOffset: Int, nFiles: Int)

  /** The whole lake: tables plus the global file catalog (rows and raw
    * CSV-serialized bytes per file, summed on the executors by the job that
    * fills each table's cache).
    */
  final case class DataLake(tables: Vector[LakeTable], catalog: FileCatalog) {
    def tableOfFile(fileId: Int): LakeTable =
      tables.find(t => fileId >= t.fileOffset && fileId < t.fileOffset + t.nFiles)
        .getOrElse(throw new IllegalArgumentException(s"no table owns file $fileId"))

    /** Samples of many partitions (all of whose files belong to one table,
      * since query families never span tables), from one Spark job. A
      * partition's sample holds its files in ascending id order, each file's
      * rows in rank order (sort column, then input order), concatenated and
      * cut at `cap`, with the table's schema without `file_id`. Only the
      * files a sample can reach are kept: a partition's files in ascending
      * order until the catalog rows before a file reach `cap`.
      *
      * @throws IllegalArgumentException if `cap` is below 1, or a part has no
      *         files, a file outside the catalog or files of two tables
      */
    def sampleParts(parts: Seq[Part], cap: Int): Vector[Sampling.Sample] = {
      require(cap >= 1, s"sample cap must be at least 1, got $cap")
      val tableOfPart = parts.map { p =>
        require(p.files.nonEmpty, s"part ${p.id} has no files")
        val outside = p.files.filter(f => f < 0 || f >= catalog.nFiles)
        require(outside.isEmpty,
          s"part ${p.id} has file ${outside.head}, outside the catalog's ${catalog.nFiles} files")
        val t = tableOfFile(p.files.head)
        require(p.files.last < t.fileOffset + t.nFiles,
          s"part ${p.id} spans tables ${t.name} and ${tableOfFile(p.files.last).name}")
        t
      }
      val reached = parts.flatMap { p =>
        val fs = p.files.toVector
        fs.zip(fs.scanLeft(0L)(_ + catalog.rows(_))).takeWhile(_._2 < cap).map(_._1)
      }.distinct
      val heads = fileHeads(reached, cap)
      parts.zip(tableOfPart).map { case (p, t) =>
        val rows = p.files.iterator.flatMap(f => heads.getOrElse(f, Vector.empty)).take(cap)
        val schema = t.df.schema.filterNot(_.name == "file_id")
        Sampling.Sample(s"part-${p.id}", rows.toIndexedSeq, StructType(schema))
      }.toVector
    }

    /** The first `cap` rows, in rank order, of each of `files`, by file id.
      * One job reads the tables' cached scans as internal rows, so no filter
      * is planned per call and only kept rows are copied, shipped and turned
      * into `Row`s (on the driver, as `collect` does).
      */
    private def fileHeads(files: Seq[Int], cap: Int): Map[Int, Vector[Row]] =
      if (files.isEmpty) Map.empty
      else {
        val byTable = files.groupBy(tableOfFile).toVector
        val scans = byTable.map { case (t, fs) =>
          val fi = t.df.schema.fieldIndex("file_id")
          val (wanted, last) = (fs.toSet, fs.max)
          // Rank order holds within and across the cached partitions, so the
          // first `cap` rows seen per file are that file's first `cap` rows,
          // and a partition's file ids never decrease: its scan stops at the
          // first row past the last wanted file.
          t.df.queryExecution.toRdd.mapPartitions { it =>
            val seen = scala.collection.mutable.HashMap.empty[Int, Int]
            it.takeWhile(_.getInt(fi) <= last).flatMap { r =>
              val f = r.getInt(fi)
              val n = seen.getOrElse(f, 0)
              if (!wanted(f) || n >= cap) None
              else { seen.update(f, n + 1); Some((f, r.copy())) }
            }
          }
        }
        val kept = scans.head.sparkContext.union(scans).collect().groupBy(_._1)
        byTable.flatMap { case (t, fs) =>
          val fi = t.df.schema.fieldIndex("file_id")
          val decode = ExpressionEncoder(t.df.schema).resolveAndBind().createDeserializer()
          fs.flatMap(f => kept.get(f).map(rs =>
            f -> rs.iterator.take(cap).map(r => Row.fromSeq(decode(r._2).toSeq.patch(fi, Nil, 1))).toVector))
        }.toMap
      }
  }

  /** Splits every table into contiguous files along its sort column and
    * computes the global file catalog. Row byte sizes are the CSV
    * serialization lengths, computed in Catalyst and summed per file by the
    * job that fills each table's cache (this is the distributed "cost model
    * evaluated per partition" path). Tables are built concurrently, one
    * driver thread each.
    *
    * @throws IllegalArgumentException if a table has fewer rows than files
    */
  def buildLake(specs: Seq[TableSpec]): DataLake = {
    val offsets = specs.scanLeft(0)(_ + _.nFiles)
    val built = Concurrently.run(specs.zip(offsets).map { case (s, off) => () => splitTable(s, off) })
    built.collectFirst { case Failure(e) => e }.foreach { e =>
      built.foreach(_.foreach(_._1.df.unpersist(blocking = true)))
      throw e
    }
    val tables = built.map(_.get)
    val rows  = new Array[Long](offsets.last)
    val bytes = new Array[Long](offsets.last)
    // A file that spans cached partitions has one partial sum in each.
    for ((_, stats) <- tables; (f, r, b) <- stats) { rows(f) += r; bytes(f) += b }
    DataLake(tables.map(_._1).toVector, FileCatalog(rows.toVector, bytes.toVector))
  }

  /** One table of `buildLake`: a distributed sort on (sortCol, input
    * position), global ranks from per-partition sizes, and `file_id` from
    * rank with `ntile`'s bucket sizes (the first N % nFiles files hold
    * one row more). One narrow job over (file_id, row bytes) fills the cache
    * and returns per-partition (file_id, rows, bytes) partial sums.
    */
  private def splitTable(s: TableSpec, fileOffset: Int): (LakeTable, Array[(Int, Long, Long)]) = {
    val spark = s.df.sparkSession
    val tiebreak = "__scope_input_position"
    val sorted = s.df.withColumn(tiebreak, monotonically_increasing_id())
      .sort(col(s.sortCol), col(tiebreak)).drop(tiebreak).rdd
    val sizes = spark.sparkContext.runJob(sorted, (it: Iterator[Row]) => it.size.toLong)
    val n = sizes.sum
    if (n < s.nFiles)
      throw new IllegalArgumentException(
        s"table ${s.name} has $n rows, fewer than its ${s.nFiles} files")
    val starts = sizes.scanLeft(0L)(_ + _)
    val (small, extra) = (n / s.nFiles, n % s.nFiles)
    val bigRows = extra * (small + 1)
    val fileOf = (rank: Long) =>
      fileOffset + (if (rank < bigRows) rank / (small + 1) else extra + (rank - bigRows) / small).toInt
    val withFile = sorted.mapPartitionsWithIndex { (p, it) =>
      var rank = starts(p)
      it.map { r => val f = fileOf(rank); rank += 1; Row.fromSeq(r.toSeq :+ f) }
    }
    val schema = s.df.schema.add("file_id", IntegerType, nullable = false)
    val df = spark.createDataFrame(withFile, schema).cache()
    val dataCols = s.df.columns.toIndexedSeq.map(c => col(c).cast("string"))
    val rowBytes = df.select(col("file_id"), length(concat_ws(",", dataCols: _*)) + 1)
    // Within a cached partition rows are in rank order, so file ids never
    // decrease: each partition sums its runs of one file.
    val stats =
      try rowBytes.queryExecution.toRdd.mapPartitions { it =>
        val runs = Vector.newBuilder[(Int, Long, Long)]
        var (f, rows, bytes) = (-1, 0L, 0L)
        it.foreach { r =>
          if (r.getInt(0) != f) {
            if (rows > 0) runs += ((f, rows, bytes))
            f = r.getInt(0); rows = 0L; bytes = 0L
          }
          rows += 1; bytes += r.getInt(1)
        }
        if (rows > 0) runs += ((f, rows, bytes))
        runs.result().iterator
      }.collect()
      catch { case e: Throwable => df.unpersist(blocking = true); throw e }
    (LakeTable(s.name, df, fileOffset, s.nFiles), stats)
  }

  /** Generates Zipf/uniform query families per table (contiguous file
    * ranges) with globally unique partition ids; returned in file order.
    *
    * @param freqScale multiplies the base family frequency — calibrates how
    *                  much read traffic the billing period sees
    * @throws IllegalArgumentException if `familiesPerTable` is below 1
    */
  def initialPartitions(lake: DataLake, familiesPerTable: Int, zipfAlpha: Double,
                        freqScale: Double, seed: Long): Vector[Part] = {
    require(familiesPerTable >= 1, s"familiesPerTable must be at least 1, got $familiesPerTable")
    var nextId = 0
    lake.tables.flatMap { t =>
      val local = QueryWorkload.rangeFamilies(
        t.nFiles, familiesPerTable, maxSpanFiles = math.max(1, t.nFiles / 8),
        zipfAlpha, seed + t.fileOffset)
      local.map { p =>
        val shifted = p.files.map(_ + t.fileOffset)
        val part = Part.initial(nextId, shifted, p.rho * freqScale)
        nextId += 1
        part
      }
    }
  }

  /** Whole-table partitions for the non-partitioned policy rows: each table
    * is one partition whose rho is the sum of its families' frequencies
    * (every query scans the whole table when there is no partitioning).
    * Ids follow the largest initial id, in table order.
    */
  def wholeTableParts(lake: DataLake, initial: Seq[Part]): Vector[Part] = {
    val firstId = initial.iterator.map(_.id + 1).maxOption.getOrElse(0)
    lake.tables.zipWithIndex.map { case (t, i) =>
      val fileRange = t.fileOffset until (t.fileOffset + t.nFiles)
      val rho = initial.filter(p => p.files.head >= t.fileOffset &&
        p.files.head < t.fileOffset + t.nFiles).map(_.rho).sum
      Part.initial(firstId + i, fileRange, rho)
    }
  }

  // ---------------------------------------------------------------------
  // Policy variants (rows of Tables IX–XI)
  // ---------------------------------------------------------------------

  /** @param partitioned  G-PART partitions (true) or whole tables (false)
    * @param tiers        tier menu offered to OPTASSIGN
    * @param compression  offer the compressing codecs (true) or identity only
    * @param capacityFracs per-tier stored-capacity as a fraction of the raw
    *                     total; None = unbounded
    * @param weights      OPTASSIGN objective weights
    * @param latencyLex   HCompress-style: lexicographically minimize
    *                     (TTFB + decompression time), cost as tiebreak
    */
  final case class Variant(key: String, label: String, adapts: String,
                           partitioned: Boolean, tiers: Vector[Tier], compression: Boolean,
                           capacityFracs: Option[Vector[Double]], weights: CostWeights,
                           latencyLex: Boolean) {

    /** The OPTASSIGN instance this row solves over `stats`: only codec 0,
      * the identity, if the row does not compress, and each capacity
      * fraction turned into GB of the stats' raw total.
      */
    def instance(stats: Vector[PartitionStat], months: Double): OptAssignInstance = {
      val offered = if (compression) stats else stats.map(s => s.copy(codecPerfs = Vector(s.codecPerfs.head)))
      val totalRawGB = offered.map(_.sizeGB).sum
      val caps = capacityFracs match {
        case Some(fr) => fr.map(f => if (f.isInfinity) Double.PositiveInfinity else f * totalRawGB)
        case None     => Vector.fill(tiers.length)(Double.PositiveInfinity)
      }
      OptAssignInstance(offered, tiers, caps, weights, months)
    }
  }

  /** Capacity reservations as fractions of the raw volume. The paper's
    * Table XII reservations are only mildly binding (its Hermes rows keep
    * the big tables on Premium, and "SCOPe (No capacity constraint)" barely
    * differs from "Total cost focused"), so Premium and Hot may each hold
    * 90% of the raw volume; the last online tier absorbs the rest.
    */
  val capFracs: Vector[Double] = Vector(0.9, 0.9, Double.PositiveInfinity)

  /** The 11 policy rows of Tables IX–XI, in paper order. */
  def variants: Vector[Variant] = {
    val p3 = CostModel.azure3
    val premiumOnly = Vector(CostModel.Premium)
    Vector(
      Variant("default", "Default (store on premium)", "-",
        partitioned = false, premiumOnly, compression = false, None, CostWeights(), latencyLex = false),
      Variant("ares", "Compress & store on premium", "Ares",
        partitioned = false, premiumOnly, compression = true, None, CostWeights(), latencyLex = false),
      Variant("hermes", "Multi-Tiering", "Hermes",
        partitioned = false, p3, compression = false, Some(capFracs), CostWeights(), latencyLex = false),
      Variant("hcompress", "Latency time focused", "HCompress",
        partitioned = false, p3, compression = true, Some(capFracs), CostWeights(), latencyLex = true),
      Variant("part-premium", "Partition & store on premium", "-",
        partitioned = true, premiumOnly, compression = false, None, CostWeights(), latencyLex = false),
      Variant("part-tier", "Partitioning + Tiering", "Hermes + G-PART",
        partitioned = true, p3, compression = false, Some(capFracs), CostWeights(), latencyLex = false),
      Variant("part-compress", "Partitioning + Compression", "Ares + G-PART",
        partitioned = true, premiumOnly, compression = true, None, CostWeights(), latencyLex = false),
      Variant("scope-latency", "SCOPe (Latency time focused)", "HCompress + G-PART",
        partitioned = true, p3, compression = true, Some(capFracs), CostWeights(), latencyLex = true),
      Variant("scope-nocap", "SCOPe (No capacity constraint)", "-",
        partitioned = true, p3, compression = true, None, CostWeights(), latencyLex = false),
      Variant("scope-read", "SCOPe (Read+Decomp. cost focused)", "-",
        partitioned = true, p3, compression = true, Some(capFracs),
        CostWeights(alpha = 0.1, beta = 1.0, gamma = 0.1), latencyLex = false),
      Variant("scope-total", "SCOPe (Total cost focused)", "-",
        partitioned = true, p3, compression = true, Some(capFracs), CostWeights(), latencyLex = false),
    )
  }

  /** The reported columns of Tables IX–XI for one policy row. All costs are
    * cents at weights (1,1,1) regardless of the optimizer's steering
    * weights; latencies are access-weighted means.
    */
  final case class PolicyReport(label: String, adapts: String,
                                storageCost: Double, decompCost: Double, readCost: Double,
                                readLatencySec: Double, decompLatencyMs: Double,
                                tierCounts: Map[String, Int]) {
    def totalCost: Double = storageCost + decompCost + readCost
    def scheme(tierOrder: Seq[String]): String =
      tierOrder.map(t => tierCounts.getOrElse(t, 0)).mkString("[", ", ", "]")
  }

  /** Prepared per-partition inputs for one policy family: raw GB (scaled),
    * access counts, and per-codec performance.
    */
  final case class PreparedParts(stats: Vector[PartitionStat])

  /** Builds OPTASSIGN partition stats: sizes from the catalog scaled by
    * `bytesScale` (SF=0.1 measured bytes -> nominal 100 GB / 1 TB volumes),
    * compression perf ground-truth-measured (or identity-only).
    *
    * @throws IllegalArgumentException if `bytesScale` is not a finite number above 0
    */
  def prepare(lake: DataLake, parts: Vector[Part], bytesScale: Double,
              compression: Boolean, sampleCap: Int): PreparedParts = {
    require(bytesScale > 0 && !bytesScale.isInfinite,
      s"bytesScale must be a finite number above 0, got $bytesScale")
    // One Spark job collects every sample; each is serialized once and its
    // codecs timed one partition at a time on the driver, away from concurrent
    // Spark work. decompSecPerGB is measured per raw GB; absolute decompression
    // time for the (scaled) partition follows inside OptAssign.terms.
    val perfs =
      if (compression) lake.sampleParts(parts, sampleCap).map { s =>
        CodecPerf.identity +:
          CompressionMeasure.codecPerfs(Layouts.Columnar.serialize(s.rows), Codecs.compressing)
      }
      else parts.map(_ => Vector(CodecPerf.identity))
    val stats = parts.zip(perfs).map { case (p, perf) =>
      PartitionStat(p.id, p.spanBytes(lake.catalog) * bytesScale / 1e9, p.rho, latencySlaSec = 1e7,
        currentTier = -1, currentCodec = -1, codecPerfs = perf)
    }
    PreparedParts(stats)
  }

  /** Runs one policy variant and produces its report row.
    *
    * @throws IllegalArgumentException if no plan meets the row's constraints,
    *         with [[OptAssign.infeasibility]]'s explanation
    */
  def runVariant(v: Variant, prepared: PreparedParts, months: Double): PolicyReport = {
    val inst = v.instance(prepared.stats, months)
    val chosen = OptAssign.solve(inst, if (v.latencyLex) latencyLexScore else OptAssign.costOf)
      .getOrElse(throw new IllegalArgumentException(
        s"variant ${v.key} infeasible: ${OptAssign.infeasibility(inst)}"))
    report(v, inst, chosen)
  }

  /** HCompress adaptation: minimize expected (access-weighted) latency
    * = rho * (decompression time + TTFB), with cost as the tiebreak.
    */
  def latencyLexScore(inst: OptAssignInstance, p: PartitionStat, l: Int, k: Int): Double =
    math.max(p.accesses, 1.0) * OptAssign.terms(inst, p, l, k).latencySec * 1e6 +
      OptAssign.costOf(inst, p, l, k)

  /** Cost/latency breakdown at reporting weights (1,1,1), over the
    * instance's own billing period.
    */
  def report(v: Variant, inst: OptAssignInstance, chosen: Seq[Assignment]): PolicyReport = {
    val byId = inst.parts.map(p => p.id -> p).toMap
    var storage, decomp, read = 0.0
    var ttfbW, decompW, rhoSum = 0.0
    val counts = scala.collection.mutable.Map.empty[String, Int]
    for (a <- chosen) {
      val p  = byId(a.id)
      val t  = inst.tiers(a.tier)
      val tm = OptAssign.terms(inst, p, a.tier, a.codec)
      storage += tm.storageCents + tm.changeCents
      decomp  += tm.decompCents
      read    += tm.readCents
      ttfbW   += p.accesses * t.ttfbSec
      decompW += p.accesses * tm.decompSec
      rhoSum  += p.accesses
      counts.update(t.name, counts.getOrElse(t.name, 0) + 1)
    }
    PolicyReport(v.label, v.adapts, storage, decomp, read,
      if (rhoSum > 0) ttfbW / rhoSum else 0.0,
      if (rhoSum > 0) decompW / rhoSum * 1000.0 else 0.0,
      counts.toMap)
  }

  /** End-to-end run of all 11 policy rows for one dataset configuration.
    *
    * @param bytesScale  measured-bytes multiplier to reach the nominal volume
    * @param months      billing horizon (paper: 5.5)
    */
  def runAll(lake: DataLake, familiesPerTable: Int, zipfAlpha: Double, freqScale: Double,
             bytesScale: Double, months: Double, gpartCfg: GPartConfig,
             sampleCap: Int, seed: Long): Vector[PolicyReport] = {
    val initial = initialPartitions(lake, familiesPerTable, zipfAlpha, freqScale, seed)
    val merged  = GPart.merge(initial, lake.catalog, gpartCfg)
    val whole   = wholeTableParts(lake, initial)

    val preparedWholeC  = prepare(lake, whole, bytesScale, compression = true, sampleCap)
    val preparedMergedC = prepare(lake, merged, bytesScale, compression = true, sampleCap)

    variants.map { v =>
      val prepared = if (v.partitioned) preparedMergedC else preparedWholeC
      runVariant(v, prepared, months)
    }
  }
}
