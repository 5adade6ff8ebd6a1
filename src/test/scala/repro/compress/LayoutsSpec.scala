package repro.compress

import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite
import java.nio.charset.StandardCharsets

class LayoutsSpec extends AnyFunSuite {

  private val rows = Vector(
    Row(1L, "alpha", 2.5),
    Row(2L, "beta", 3.5),
    Row(3L, "alpha", 2.5))

  test("row layout produces one CSV line per row") {
    val s = new String(Layouts.RowCsv.serialize(rows), StandardCharsets.UTF_8)
    val lines = s.split("\n")
    assert(lines.length == 3)
    assert(lines(0) == "1,alpha,2.5")
    assert(lines(2) == "3,alpha,2.5")
  }

  test("columnar layout groups values by column") {
    val s = new String(Layouts.Columnar.serialize(rows), StandardCharsets.UTF_8)
    val lines = s.split("\n")
    assert(lines.length == 9)
    assert(lines.take(3).toSeq == Seq("1", "2", "3"))
    assert(lines.slice(3, 6).toSeq == Seq("alpha", "beta", "alpha"))
  }

  test("null cells serialize as empty strings in both layouts") {
    val withNull = Vector(Row(1L, null, 2.0))
    assert(new String(Layouts.RowCsv.serialize(withNull)) == "1,,2.0\n")
    assert(new String(Layouts.Columnar.serialize(withNull)) == "1\n\n2.0\n")
  }

  test("empty row set serializes to empty bytes") {
    assert(Layouts.RowCsv.serialize(Vector.empty).isEmpty)
    assert(Layouts.Columnar.serialize(Vector.empty).isEmpty)
  }

  test("columnar layout compresses repetitive columns better than row layout") {
    // One column of a single repeated token, one of unique tokens: grouping
    // the repeated column gives the codec longer matches.
    val data = (1 to 2000).map(i => Row(s"uniq-$i-${i * 7}", "repeatedvalue")).toVector
    val rowC = Codecs.Gzip.compress(Layouts.RowCsv.serialize(data)).length
    val colC = Codecs.Gzip.compress(Layouts.Columnar.serialize(data)).length
    assert(colC < rowC)
  }
}
