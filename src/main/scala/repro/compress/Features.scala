package repro.compress

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._

/** COMPREDICT features (Section V): per-datatype *weighted entropy*
  *
  *   H(P, d) = - sum_{s in P[:,d]} len(s) * pr(s) * log pr(s)
  *
  * where the sum ranges over distinct string representations s of values in
  * the columns of datatype d, pr(s) is s's probability of occurrence among
  * those values and len(s) its length. Plus the naive size features the
  * paper compares against.
  */
object Features {

  /** The feature set a COMPREDICT model sees. */
  sealed trait Kind
  /** Size features plus the per-datatype weighted entropies (the paper's). */
  case object Entropy extends Kind
  /** The paper's naive size-only baseline. */
  case object Size extends Kind

  /** Canonical datatype buckets so feature vectors align across samples. */
  val dtypeUniverse: Vector[String] = Vector("int", "float", "object", "date")

  def dtypeOf(dt: DataType): String = dt match {
    case _: IntegerType | _: LongType | _: ShortType | _: ByteType => "int"
    case _: DoubleType | _: FloatType | _: DecimalType             => "float"
    case _: DateType | _: TimestampType                            => "date"
    case _                                                         => "object"
  }

  /** Weighted entropy per datatype bucket, computed locally on collected
    * rows (samples are small by construction).
    */
  def weightedEntropyLocal(rows: Seq[Row], schema: StructType): Map[String, Double] = {
    val byType = schema.fields.zipWithIndex.groupBy { case (f, _) => dtypeOf(f.dataType) }
    byType.map { case (d, fields) =>
      val counts = new scala.collection.mutable.HashMap[String, Long]
      var total  = 0L
      rows.foreach { r =>
        fields.foreach { case (_, i) =>
          val s = Option(r.get(i)).map(_.toString).getOrElse("")
          counts.update(s, counts.getOrElse(s, 0L) + 1L)
          total += 1L
        }
      }
      val h =
        if (total == 0) 0.0
        else counts.iterator.map { case (s, c) =>
          val pr = c.toDouble / total
          -s.length * pr * math.log(pr)
        }.sum
      d -> h
    }
  }

  /** Assembles the model feature vector for one sample: raw serialized size,
    * row count, and the per-datatype weighted entropies aligned to
    * [[dtypeUniverse]].
    */
  def featureVector(rawBytes: Long, nRows: Long, entropy: Map[String, Double]): Array[Double] =
    Array(rawBytes.toDouble, nRows.toDouble) ++
      dtypeUniverse.map(d => entropy.getOrElse(d, 0.0))

  /** The paper's "Size"-only baseline features. */
  def sizeOnlyVector(rawBytes: Long, nRows: Long): Array[Double] =
    Array(rawBytes.toDouble, nRows.toDouble)
}
