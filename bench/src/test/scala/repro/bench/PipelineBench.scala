package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpPipeline

/** Shared harness for the full-pipeline benches (Tables IX–XI): runs the 11
  * policy variants, prints the paper's total cost next to ours, and checks
  * the orderings the paper's tables demonstrate. `paperTotals` holds the
  * paper's total per policy row, in `Scope.variants` order.
  */
abstract class PipelineBench(tableName: String, config: ExpPipeline.Config, paperTotals: Vector[Double])
    extends AnyFunSuite with BenchBase {

  test(s"$tableName: 11-policy pipeline comparison") {
    banner(tableName,
      s"${config.name} at SF=$sf scaled to ${config.targetGB} GB; costs in cents over 5.5 months")
    val reports = ExpPipeline.run(spark, config, sf)
    assert(reports.length == 11)
    printBeside("" +: "paperTotal" +: paperTotals.map(v => f"$v%.1f"),
      ExpPipeline.format(config.name, reports))

    val m = reports.map(r => r.label -> r).toMap
    val default = m("Default (store on premium)")
    val ares    = m("Compress & store on premium")
    val hermes  = m("Multi-Tiering")
    val partP   = m("Partition & store on premium")
    val partT   = m("Partitioning + Tiering")
    val scopeT  = m("SCOPe (Total cost focused)")
    val scopeN  = m("SCOPe (No capacity constraint)")

    // Paper's headline orderings (Tables IX-XI, all three datasets):
    assert(ares.storageCost < default.storageCost, "compression cuts premium storage")
    assert(ares.totalCost < default.totalCost, "Ares < Default")
    assert(hermes.totalCost <= default.totalCost * 1.05 + 1e-6,
      "tiering never loses meaningfully to all-premium (paper: equal at 100GB/1TB)")
    assert(partP.readCost < default.readCost / 2, "partitioning slashes read volume")
    assert(partT.totalCost < hermes.totalCost, "G-PART improves the Hermes baseline")
    assert(partT.totalCost < default.totalCost / 2, "partition+tier is a step change")
    val bestScope = Seq("SCOPe (Latency time focused)", "SCOPe (No capacity constraint)",
      "SCOPe (Read+Decomp. cost focused)", "SCOPe (Total cost focused)").map(m(_).totalCost).min
    val bestOther = Seq("Default (store on premium)", "Compress & store on premium",
      "Multi-Tiering", "Latency time focused", "Partition & store on premium",
      "Partitioning + Tiering", "Partitioning + Compression").map(m(_).totalCost).min
    assert(bestScope < bestOther, "the full pipeline wins overall (paper: lowest total cost)")
    assert(scopeT.totalCost < default.totalCost * 0.25,
      "SCOPe(total) is within 8-18% of Default in the paper; ours must stay far below Default")
    assert(scopeN.totalCost <= scopeT.totalCost * 1.05 + 1e-6,
      "removing capacity constraints cannot hurt much")
    // more partitions after G-PART than tables (paper's Tiering Scheme column)
    assert(partP.tierCounts.values.sum > default.tierCounts.values.sum)
  }
}

/** Table IX: Enterprise Data II (3 tables, ~1.5 GB, Zipf queries). */
class TableIXBench extends PipelineBench("Table IX", ExpPipeline.enterpriseII,
  Vector(168.9, 157.4, 82.0, 98.9, 103.9, 62.9, 133.1, 121.2, 30.3, 81.2, 30.3))

/** Table X: TPC-H 100GB (8 tables, uniform queries). */
class TableXBench extends PipelineBench("Table X", ExpPipeline.tpch100,
  Vector(12570.4, 10646.8, 12570.4, 26093.4, 8819.9, 1812.4, 5573.4, 5722.6, 940.6, 4832.1, 952.7))

/** Table XI: TPC-H 1TB. */
class TableXIBench extends PipelineBench("Table XI", ExpPipeline.tpch1t,
  Vector(128360, 112010, 128050, 284050, 84530, 34280, 50380, 69440, 25420, 63740, 19790))
