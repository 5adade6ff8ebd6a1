package repro.compress

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType

/** A distributed computation of the weighted entropy H(P, d), kept as the
  * oracle for [[Features.weightedEntropyLocal]]: per datatype bucket, the
  * bucket's columns are stacked into one string column and a groupBy-count
  * aggregation gives each value's pr(s).
  */
object FeaturesReference {

  def weightedEntropy(df: DataFrame): Map[String, Double] =
    df.schema.fields.groupBy(f => Features.dtypeOf(f.dataType)).map { case (d, fs) =>
      val stacked = fs.toSeq.map(f => df.select(col(f.name).cast(StringType) as "v"))
        .reduce(_ unionAll _)
      val counts = stacked.na.fill("", Seq("v")).groupBy("v").count()
      val total  = counts.agg(sum("count")).first().getLong(0).toDouble
      val h = counts
        .select(sum(-length(col("v")) * (col("count") / total) * log(col("count") / total)) as "h")
        .first()
      d -> (if (h.isNullAt(0)) 0.0 else h.getDouble(0))
    }
}
