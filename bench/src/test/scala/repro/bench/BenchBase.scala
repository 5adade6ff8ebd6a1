package repro.bench

import repro.SparkSpec
import repro.jobs.JobSession

/** Shared scaffolding for the table benches: the jobs' scale factor, a
  * uniform banner, and each table printed as its job prints it with the
  * paper's values beside it, so the stdout of `sbt bench/test` is directly
  * diffable against EXPERIMENTS.md.
  */
trait BenchBase extends SparkSpec {
  /** Bench scale: the jobs' REPRO_SF (SF=0.1, ~100 MB synthetic TPC-H-lite, unless set). */
  def sf: Double = JobSession.sf

  def banner(table: String, note: String): Unit = {
    println(s"\n================ $table ================")
    println(note)
  }

  /** Prints each of a harness's `lines` after its cell of `paper`: the
    * paper's value for that line, or its column header, or "".
    */
  def printBeside(paper: Seq[String], lines: Seq[String]): Unit = {
    assert(paper.length == lines.length, s"${paper.length} paper cells for ${lines.length} lines")
    val width = paper.map(_.length).max
    paper.zip(lines).foreach { case (p, l) => println(s"${p.padTo(width, ' ')} | $l") }
  }
}
