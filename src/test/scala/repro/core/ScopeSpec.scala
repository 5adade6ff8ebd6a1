package repro.core

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec, SynthData, SynthDataExt}
import repro.compress.{Codecs, CompressionMeasure, Layouts}
import repro.partition.{FileCatalog, GPartConfig}

class ScopeSpec extends AnyFunSuite with SparkSpec {

  private lazy val lake: Scope.DataLake = Scope.buildLake(Seq(
    Scope.TableSpec("orders", SynthData.orders(spark, sf = 0.004), "o_orderkey", 6),
    Scope.TableSpec("customer", SynthData.customer(spark, sf = 0.004), "c_custkey", 4),
  ))

  test("buildLake: catalog covers all files with positive rows and bytes") {
    assert(lake.catalog.nFiles == 10)
    assert(lake.catalog.rows.forall(_ > 0))
    assert(lake.catalog.bytes.forall(_ > 0))
  }

  test("buildLake: per-table file row totals equal table row counts") {
    val ordersRows = SynthData.orders(spark, sf = 0.004).count()
    assert(lake.catalog.rows.take(6).sum == ordersRows)
  }

  test("buildLake: per-file row counts match DuckDB over the file-id assignment (oracle)") {
    val t = lake.tables.head
    val counts = t.df.groupBy(col("file_id")).agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(counts,
      "SELECT file_id, count(*) AS cnt FROM f GROUP BY file_id", "f" -> t.df)
  }

  test("buildLake: catalog bytes equal the CSV serialization length (cross-check vs local)") {
    val t = lake.tables(1) // customer: small
    val rows = t.df.drop("file_id").collect().toVector
    val localBytes = Layouts.RowCsv.serialize(rows).length.toLong
    val catBytes = (t.fileOffset until t.fileOffset + t.nFiles).map(lake.catalog.bytes).sum
    assert(catBytes == localBytes)
  }

  test("TableSpec rejects fewer than one file") {
    val e = intercept[IllegalArgumentException](
      Scope.TableSpec("region", SynthDataExt.region(spark), "r_regionkey", 0))
    assert(e.getMessage.contains("region"))
  }

  test("TableSpec rejects a sort column the table does not have") {
    val e = intercept[IllegalArgumentException](
      Scope.TableSpec("region", SynthDataExt.region(spark), "n_nationkey", 1))
    assert(e.getMessage.contains("n_nationkey"))
  }

  test("TableSpec rejects a table that already has a file_id column") {
    val df = SynthDataExt.region(spark).withColumn("file_id", lit(0))
    val e = intercept[IllegalArgumentException](Scope.TableSpec("region", df, "r_regionkey", 1))
    assert(e.getMessage.contains("file_id"))
  }

  test("buildLake rejects a table with fewer rows than files, naming it") {
    val e = intercept[IllegalArgumentException](Scope.buildLake(Seq(
      Scope.TableSpec("nation", SynthDataExt.nation(spark), "n_nationkey", 2),
      Scope.TableSpec("region", SynthDataExt.region(spark), "r_regionkey", 6))))
    assert(e.getMessage.contains("region"))
  }

  test("buildLake rejects an empty table, naming it") {
    val empty = SynthDataExt.region(spark).filter(col("r_regionkey") < 0)
    val e = intercept[IllegalArgumentException](
      Scope.buildLake(Seq(Scope.TableSpec("no_regions", empty, "r_regionkey", 1))))
    assert(e.getMessage.contains("no_regions"))
  }

  test("tableOfFile maps global file ids to their owning table") {
    assert(lake.tableOfFile(0).name == "orders")
    assert(lake.tableOfFile(5).name == "orders")
    assert(lake.tableOfFile(6).name == "customer")
    assertThrows[IllegalArgumentException] { lake.tableOfFile(99) }
  }

  test("sampleParts returns only rows of the partition's files") {
    val part = repro.partition.Part.initial(0, Seq(6, 7), 1.0) // customer files
    val Vector(sample) = lake.sampleParts(Seq(part), cap = 100000)
    assert(sample.schema.fieldNames.toSeq == SynthData.customer(spark, 0.004).columns.toSeq)
    val expected = lake.catalog.rows(6) + lake.catalog.rows(7)
    assert(sample.rows.length == expected)
  }

  test("sampleParts rejects a cap below 1") {
    val e = intercept[IllegalArgumentException](
      lake.sampleParts(Seq(repro.partition.Part.initial(0, Seq(0), 1.0)), cap = 0))
    assert(e.getMessage.contains("cap"))
  }

  test("sampleParts rejects a part with no files, naming it") {
    val e = intercept[IllegalArgumentException](
      lake.sampleParts(Seq(repro.partition.Part.initial(7, Nil, 1.0)), cap = 10))
    assert(e.getMessage.contains("part 7"))
  }

  test("sampleParts rejects a file outside the catalog, naming the part") {
    val e = intercept[IllegalArgumentException](
      lake.sampleParts(Seq(repro.partition.Part.initial(8, Seq(9, 10), 1.0)), cap = 10))
    assert(e.getMessage.contains("part 8") && e.getMessage.contains("file 10"))
  }

  test("sampleParts rejects a part whose files span two tables, naming it") {
    val e = intercept[IllegalArgumentException](
      lake.sampleParts(Seq(repro.partition.Part.initial(9, Seq(5, 6), 1.0)), cap = 10))
    assert(e.getMessage.contains("part 9") &&
      e.getMessage.contains("orders") && e.getMessage.contains("customer"))
  }

  test("initialPartitions: per-table families with globally unique ids, scaled frequencies") {
    val parts = Scope.initialPartitions(lake, familiesPerTable = 5, zipfAlpha = 1.0,
      freqScale = 10.0, seed = 1)
    assert(parts.length == 10)
    assert(parts.map(_.id).distinct.length == 10)
    // families never span tables
    parts.foreach { p =>
      val t = lake.tableOfFile(p.files.head)
      assert(p.files.forall(f => lake.tableOfFile(f).name == t.name))
    }
    assert(parts.forall(_.rho >= 10.0)) // freqScale applied (base >= 1)
  }

  test("wholeTableParts: one partition per table, rho = sum of family frequencies") {
    val parts = Scope.initialPartitions(lake, 5, 1.0, 1.0, seed = 2)
    val whole = Scope.wholeTableParts(lake, parts)
    assert(whole.length == 2)
    assert(math.abs(whole.map(_.rho).sum - parts.map(_.rho).sum) < 1e-9)
    assert(whole.head.files.size == 6 && whole(1).files.size == 4)
    assert(whole.map(_.id).toSet.intersect(parts.map(_.id).toSet).isEmpty,
      "whole-table ids must be disjoint from the initial ids")
  }

  test("prepare with compression: identity first, compressing codecs reach ratio > 1") {
    val part = repro.partition.Part.initial(0, Seq(0, 1), 1.0)
    val perfs = Scope.prepare(lake, Vector(part), bytesScale = 1.0, compression = true,
      sampleCap = 1500).stats.head.codecPerfs
    assert(perfs.length == 4)
    assert(perfs.head == CodecPerf.identity)
    assert(perfs.tail.forall(_.ratio > 1.0))
    val Vector(sample) = lake.sampleParts(Seq(part), 1500)
    assert(perfs.tail.map(_.ratio) ==
      Codecs.compressing.map(c => CompressionMeasure.measureRows(sample.rows, Layouts.Columnar, c).ratio))
  }

  test("prepare scales partition sizes by bytesScale") {
    val parts = Scope.initialPartitions(lake, 3, 0.0, 1.0, seed = 3)
    val p1 = Scope.prepare(lake, parts, bytesScale = 1.0, compression = false, sampleCap = 100)
    val p2 = Scope.prepare(lake, parts, bytesScale = 10.0, compression = false, sampleCap = 100)
    p1.stats.zip(p2.stats).foreach { case (a, b) =>
      assert(math.abs(b.sizeGB - 10 * a.sizeGB) < 1e-12)
    }
  }

  /** A lake with one file and no tables: enough for the boundary checks, with no Spark job. */
  private val bareLake = Scope.DataLake(Vector.empty, FileCatalog(Vector(10L), Vector(100L)))

  test("initialPartitions rejects fewer than one family per table") {
    for (bad <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Scope.initialPartitions(bareLake, bad, 0.0, 1.0, seed = 1))
      assert(e.getMessage.contains(s"familiesPerTable must be at least 1, got $bad"))
    }
  }

  test("prepare rejects a bytesScale that is not a finite number above 0") {
    val part = repro.partition.Part.initial(0, Seq(0), 1.0)
    for (bad <- Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity)) {
      val e = intercept[IllegalArgumentException](
        Scope.prepare(bareLake, Vector(part), bad, compression = false, sampleCap = 100))
      assert(e.getMessage.contains(s"bytesScale must be a finite number above 0, got $bad"))
    }
  }

  test("variants: the 11 policy rows of Tables IX-XI in paper order") {
    val keys = Scope.variants.map(_.key)
    assert(keys == Vector("default", "ares", "hermes", "hcompress", "part-premium",
      "part-tier", "part-compress", "scope-latency", "scope-nocap", "scope-read", "scope-total"))
    assert(Scope.variants.count(_.partitioned) == 7)
    assert(Scope.variants.count(_.compression) == 7)
  }

  test("runVariant names each partition whose SLA no tier meets, with the fastest latency") {
    def stat(id: Int, sla: Double) = PartitionStat(id, sizeGB = 1.0, accesses = 1.0, latencySlaSec = sla,
      currentTier = -1, currentCodec = -1, codecPerfs = Vector(CodecPerf.identity))
    val prepared = Scope.PreparedParts(Vector(stat(3, 0.001), stat(4, 1e7)))
    val e = intercept[IllegalArgumentException](
      Scope.runVariant(Scope.variants.find(_.key == "hermes").get, prepared, months = 1.0))
    assert(e.getMessage.contains("hermes") && e.getMessage.contains("partition 3 (SLA 0.001 s") &&
      e.getMessage.contains("fastest option 0.0053 s"), e.getMessage)
    assert(!e.getMessage.contains("partition 4"))
  }

  test("end-to-end runAll: report shape and headline orderings") {
    val reports = Scope.runAll(lake, familiesPerTable = 4, zipfAlpha = 1.0, freqScale = 10.0,
      bytesScale = 100.0, months = 5.5, GPartConfig(rhoC = 3.0, rhoCAbs = 100.0,
        sThreshRows = lake.catalog.rows.sum / 2), sampleCap = 800, seed = 4)
    assert(reports.length == 11)
    val byLabel = reports.map(r => r.label -> r).toMap
    val default = byLabel("Default (store on premium)")
    val ares    = byLabel("Compress & store on premium")
    val partP   = byLabel("Partition & store on premium")
    val scope   = byLabel("SCOPe (Total cost focused)")

    assert(default.decompCost == 0.0 && default.decompLatencyMs == 0.0)
    assert(ares.storageCost < default.storageCost, "compression must cut premium storage")
    assert(partP.readCost < default.readCost, "partitioning must cut read volume")
    assert(scope.totalCost < default.totalCost, "SCOPe must beat the platform default")
    assert(scope.totalCost <= reports.map(_.totalCost).max)
    // tier counts are consistent with the number of partitions
    assert(default.tierCounts.values.sum == 2)
    assert(partP.tierCounts.values.sum > 2, "G-PART yields more partitions than tables")
  }

  test("latency-focused variant achieves the lowest expected access latency") {
    val reports = Scope.runAll(lake, 4, 1.0, 10.0, 100.0, 5.5,
      GPartConfig(3.0, 100.0, lake.catalog.rows.sum / 2), sampleCap = 800, seed = 5)
    val byLabel = reports.map(r => r.label -> r).toMap
    val lat = byLabel("SCOPe (Latency time focused)")
    val tot = byLabel("SCOPe (Total cost focused)")
    // The latency-lex score minimizes rho * (TTFB + decomp), i.e. the
    // access-weighted mean of (readLatencySec + decompLatency).
    def expectedLatency(r: Scope.PolicyReport): Double =
      r.readLatencySec + r.decompLatencyMs / 1000.0
    assert(expectedLatency(lat) <= expectedLatency(tot) + 1e-6)
    assert(lat.decompLatencyMs <= tot.decompLatencyMs + 1e-9,
      "latency focus never compresses more than cost focus")
  }
}
