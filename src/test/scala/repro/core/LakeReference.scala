package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.partition.{FileCatalog, Part}

/** The first-written lake build and sampler, kept as the oracle for
  * `LakeDifferentialSpec`: each table is split by a global `ntile` window
  * (which moves the table onto one partition), tables are built one after
  * another, and a sample is one `filter(isin).limit(cap)` job per partition.
  * Its catalog is positional, so it is only valid when every file gets rows.
  */
object LakeReference {

  def buildLake(specs: Seq[Scope.TableSpec]): Scope.DataLake = {
    var offset = 0
    val tables = specs.map { s =>
      val w = Window.orderBy(col(s.sortCol), monotonically_increasing_id())
      val df = s.df
        .withColumn("file_id", ((ntile(s.nFiles).over(w) - 1) + offset).cast("int"))
        .cache()
      df.count() // materialize before the window's single-partition shuffle is re-run
      val t = Scope.LakeTable(s.name, df, offset, s.nFiles)
      offset += s.nFiles
      t
    }.toVector

    val stats = tables.map { t =>
      val dataCols = t.df.columns.toIndexedSeq.filterNot(_ == "file_id").map(c => col(c).cast("string"))
      t.df
        .groupBy(col("file_id"))
        .agg(count(lit(1)) as "rows",
             sum(length(concat_ws(",", dataCols: _*)) + 1) as "bytes")
        .collect()
        .map(r => (r.getInt(0), r.getLong(1), r.getLong(2)))
    }
    val all = stats.flatten.sortBy(_._1)
    Scope.DataLake(tables, FileCatalog(all.map(_._2).toVector, all.map(_._3).toVector))
  }

  def sampleRows(lake: Scope.DataLake, part: Part, cap: Int): (IndexedSeq[Row], StructType) = {
    val t = lake.tableOfFile(part.files.head)
    val rows = t.df
      .filter(col("file_id").isin(part.files.toSeq.map(Integer.valueOf): _*))
      .drop("file_id")
      .limit(cap)
      .collect()
      .toIndexedSeq
    (rows, StructType(t.df.schema.filterNot(_.name == "file_id")))
  }
}
