package repro.compress

import java.nio.charset.StandardCharsets
import org.apache.spark.sql.Row

/** Byte-level serialization of row sets in the two storage layouts the
  * paper compares (Section V, "Row vs Column Oriented Storage").
  *
  *  - Row layout ("csv"): consecutive row entries adjacent — CSV lines.
  *  - Columnar layout ("parquet"): consecutive *column* entries adjacent —
  *    per-column value runs concatenated, the property that gives columnar
  *    formats their compression advantage. (Substitute for on-disk parquet:
  *    the codec sees the same value adjacency without filesystem round
  *    trips; see DESIGN.md.)
  */
sealed trait Layout extends Serializable {
  def name: String
  def serialize(rows: Seq[Row]): Array[Byte]
}

object Layouts {

  private def cell(v: Any): String = if (v == null) "" else v.toString

  case object RowCsv extends Layout {
    val name = "csv"
    def serialize(rows: Seq[Row]): Array[Byte] = {
      val sb = new java.lang.StringBuilder(rows.size * 32)
      rows.foreach { r =>
        var i = 0
        val n = r.length
        while (i < n) {
          if (i > 0) sb.append(',')
          sb.append(cell(r.get(i)))
          i += 1
        }
        sb.append('\n')
      }
      sb.toString.getBytes(StandardCharsets.UTF_8)
    }
  }

  case object Columnar extends Layout {
    val name = "parquet"
    def serialize(rows: Seq[Row]): Array[Byte] = {
      val sb = new java.lang.StringBuilder(rows.size * 32)
      if (rows.nonEmpty) {
        val nCols = rows.head.length
        var c = 0
        while (c < nCols) {
          rows.foreach { r => sb.append(cell(r.get(c))).append('\n') }
          c += 1
        }
      }
      sb.toString.getBytes(StandardCharsets.UTF_8)
    }
  }
}
