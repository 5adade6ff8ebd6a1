package repro.bench

import repro.SparkSpec

/** Shared scaffolding for the table benches: bench scale factor and a
  * uniform "paper vs measured" banner, so the stdout of `sbt bench/test`
  * is directly diffable against EXPERIMENTS.md.
  */
trait BenchBase extends SparkSpec {
  /** Bench scale: SF=0.1 (~100 MB synthetic TPC-H-lite) unless overridden. */
  def sf: Double = sys.env.getOrElse("REPRO_SF", "0.1").toDouble

  def banner(table: String, note: String): Unit = {
    println(s"\n================ $table ================")
    println(note)
  }
}
