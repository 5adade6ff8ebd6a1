package repro.jobs

import java.io.ByteArrayOutputStream
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.ExpTiering

/** Smoke tests of the spark-submit entrypoints: each prints its table. */
class JobsSpec extends AnyFunSuite {

  test("TableII.main prints the header and one row per customer of ExpTiering.tableII") {
    val buf = new ByteArrayOutputStream()
    Console.withOut(buf)(TableII.main(Array.empty))
    val lines = buf.toString("UTF-8").linesIterator.toVector
    val rows  = ExpTiering.tableII()
    assert(lines == ExpTiering.formatII(rows))
    assert(lines.length == 1 + rows.length, lines.mkString("\n"))
    assert(lines.head.split("\\s+").toSeq ==
      Seq("Customer", "Size(PB)", "2", "mos", "%", "6", "mos", "%"), lines.head)
    for ((line, r) <- lines.tail.zip(rows)) {
      assert(line.startsWith(r.customer), line)
      assert(line.drop(r.customer.length).trim.split("\\s+").toSeq ==
        Seq(f"${r.totalPB}%.3f", f"${r.benefit2mo}%.2f", f"${r.benefit6mo}%.2f"), line)
    }
  }
}
