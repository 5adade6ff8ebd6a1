package repro.compress

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.compress.ComPredict.{Example, Fitted, Model, PerfPredictor}
import repro.compress.Sampling.{EqQuery, QuerySpec, RangeQuery, Sample}
import scala.util.Random

/** The first-written COMPREDICT sampling and training steps, kept as the
  * differential-test oracle: one aggregation per numeric column's bounds,
  * one `filter(p).limit(n).collect()` per query, and one codec at a time
  * measured and fitted in turn.
  */
object SamplingReference {

  def generateQueries(df: DataFrame, n: Int, seed: Long): Vector[QuerySpec] = {
    val rng = new Random(seed)
    val catCols = df.schema.fields.filter(f => Features.dtypeOf(f.dataType) == "object").map(_.name)
    val numCols = df.schema.fields
      .filter(f => Set("int", "float").contains(Features.dtypeOf(f.dataType))).map(_.name)

    val catValues: Map[String, IndexedSeq[String]] = catCols.map { c =>
      c -> df.select(col(c).cast(StringType)).distinct().limit(50)
        .collect().map(_.getString(0)).toIndexedSeq
    }.toMap
    val numBounds: Map[String, (Double, Double)] = numCols.map { c =>
      val r = df.agg(min(col(c).cast(DoubleType)), max(col(c).cast(DoubleType))).first()
      c -> (r.getDouble(0), r.getDouble(1))
    }.toMap

    (0 until n).map { _ =>
      if (catCols.nonEmpty && (numCols.isEmpty || rng.nextDouble() < 0.4)) {
        val c  = catCols(rng.nextInt(catCols.length))
        val vs = catValues(c)
        EqQuery(c, vs(rng.nextInt(vs.length)))
      } else {
        val c          = numCols(rng.nextInt(numCols.length))
        val (lo, hi)   = numBounds(c)
        val width      = (hi - lo) * (0.02 + rng.nextDouble() * 0.3)
        val start      = lo + rng.nextDouble() * math.max(1e-9, hi - lo - width)
        RangeQuery(c, start, start + width)
      }
    }.toVector
  }

  def querySamples(df: DataFrame, queries: Seq[QuerySpec], maxRows: Int): Vector[Sample] =
    queries.iterator.map { q =>
      Sample(q.tag, df.filter(q.predicate).limit(maxRows).collect().toIndexedSeq, df.schema)
    }.filter(_.rows.nonEmpty).toVector

  /** One codec's entropy-feature examples: every sample serialized,
    * featurized and measured again for each codec.
    */
  def examples(samples: Seq[Sample], layout: Layout, codec: Codec): Vector[Example] =
    samples.iterator.map { s =>
      val raw = layout.serialize(s.rows)
      val feats = Features.featureVector(raw.length.toLong, s.rows.length.toLong,
        Features.weightedEntropyLocal(s.rows, s.schema))
      val m = CompressionMeasure.measureBytes(raw, codec)
      Example(s.tag, feats, m.ratio, m.decompSecPerGB)
    }.toVector

  def trainPredictor(samples: Seq[Sample], layout: Layout,
                     model: Model = ComPredict.randomForest()): PerfPredictor = {
    val ratio  = scala.collection.mutable.Map.empty[String, Fitted]
    val decomp = scala.collection.mutable.Map.empty[String, Fitted]
    for (c <- Codecs.compressing) {
      val ex = examples(samples, layout, c)
      ratio(c.name)  = model.fit(ex.map(_.features), ex.map(_.ratio))
      decomp(c.name) = model.fit(ex.map(_.features), ex.map(_.decompSecPerGB))
    }
    new PerfPredictor(ratio.toMap, decomp.toMap, layout)
  }

  /** `trainPredictor`'s fit loop on given examples (by codec name), so a
    * test can fit twice on the same measured decompression labels.
    */
  def fitSequential(examples: Map[String, Vector[Example]], layout: Layout,
                    model: Model = ComPredict.randomForest()): PerfPredictor = {
    val ratio  = scala.collection.mutable.Map.empty[String, Fitted]
    val decomp = scala.collection.mutable.Map.empty[String, Fitted]
    for (c <- Codecs.compressing) {
      val ex = examples(c.name)
      ratio(c.name)  = model.fit(ex.map(_.features), ex.map(_.ratio))
      decomp(c.name) = model.fit(ex.map(_.features), ex.map(_.decompSecPerGB))
    }
    new PerfPredictor(ratio.toMap, decomp.toMap, layout)
  }
}
