package repro.compress

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.util.Random

/** Training-sample generation for COMPREDICT (Section V): random row
  * samples vs query-result samples. The paper's key observation (Fig. 4)
  * is that queried data has more repetition than random row samples, so
  * models trained on query results predict compression on real access
  * patterns far better.
  */
object Sampling {

  /** One training sample: collected rows plus a provenance tag. */
  final case class Sample(tag: String, rows: IndexedSeq[Row], schema: StructType)

  /** `n` random-row samples of ~`rowsPer` rows each. */
  def randomSamples(df: DataFrame, n: Int, rowsPer: Int, seed: Long): Vector[Sample] = {
    val total = df.count().toDouble
    (0 until n).map { i =>
      val frac = math.min(1.0, rowsPer / math.max(1.0, total) * 1.3)
      val rows = df.sample(withReplacement = false, frac, seed + i)
        .limit(rowsPer).collect().toIndexedSeq
      Sample(s"random-$i", rows, df.schema)
    }.toVector.filter(_.rows.nonEmpty)
  }

  /** A synthetic query: equality on a categorical column or a range on a
    * numeric/date column — the template classes TPC-H predicates reduce to.
    */
  sealed trait QuerySpec { def predicate: Column; def tag: String }
  final case class EqQuery(col0: String, value: String) extends QuerySpec {
    def predicate: Column = col(col0).cast(StringType) === value
    def tag: String       = s"eq:$col0=$value"
  }
  final case class RangeQuery(col0: String, lo: Double, hi: Double) extends QuerySpec {
    def predicate: Column = col(col0) >= lo && col(col0) < hi
    def tag: String       = s"range:$col0[$lo,$hi)"
  }

  /** Generates `n` query specs from the DataFrame's schema: equality
    * predicates over observed categorical values, range predicates over
    * numeric quantiles (range width varies so result sizes vary, as 20
    * instances per TPC-H template would). One aggregation reads the row
    * count and every numeric column's bounds; each categorical column takes
    * its own `distinct().limit(50)`, whose value order picks the queries.
    *
    * @throws IllegalArgumentException if `n` is negative, `df` has no
    *         categorical or numeric column, `df` is empty, or a numeric
    *         column holds only nulls
    */
  def generateQueries(df: DataFrame, n: Int, seed: Long): Vector[QuerySpec] = {
    require(n >= 0, s"query count must be non-negative, got $n")
    val rng = new Random(seed)
    val catCols = df.schema.fields.filter(f => Features.dtypeOf(f.dataType) == "object").map(_.name)
    val numCols = df.schema.fields
      .filter(f => Set("int", "float").contains(Features.dtypeOf(f.dataType))).map(_.name)
    require(catCols.nonEmpty || numCols.nonEmpty,
      s"no categorical or numeric column to query among ${df.columns.mkString("[", ", ", "]")}")

    val stats = df.agg(count(lit(1)), numCols.toSeq.flatMap { c =>
      val v = col(c).cast(DoubleType)
      Seq(min(v), max(v))
    }: _*).first()
    require(stats.getLong(0) > 0, "cannot generate queries on an empty frame")
    val numBounds: Map[String, (Double, Double)] = numCols.zipWithIndex.map { case (c, i) =>
      require(!stats.isNullAt(1 + 2 * i), s"numeric column $c holds only nulls")
      c -> (stats.getDouble(1 + 2 * i), stats.getDouble(2 + 2 * i))
    }.toMap
    val catValues: Map[String, IndexedSeq[String]] = catCols.map { c =>
      c -> df.select(col(c).cast(StringType)).distinct().limit(50)
        .collect().map(_.getString(0)).toIndexedSeq
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

  /** Executes queries and returns their (capped) result sets as samples,
    * dropping queries with no match. A sample is its query's first `maxRows`
    * matches in partition order: the rows `df.filter(q.predicate)
    * .limit(maxRows).collect()` returns, so `df` should be cached (or
    * otherwise yield its rows in a fixed order).
    *
    * All queries run in one Spark job. Catalyst flags every row per query
    * (a null predicate is no match) and keeps the rows matching any query;
    * each partition keeps its first `maxRows` matches per query and stops
    * once every query has them; the driver joins the partitions in index
    * order and cuts each sample at `maxRows`.
    *
    * @throws IllegalArgumentException if `maxRows` is below 1
    */
  def querySamples(df: DataFrame, queries: Seq[QuerySpec], maxRows: Int): Vector[Sample] = {
    require(maxRows >= 1, s"maxRows must be at least 1, got $maxRows")
    if (queries.isEmpty) Vector.empty
    else {
      val flags = queries.map(q => coalesce(q.predicate, lit(false)))
      val (nq, width) = (queries.size, df.schema.length)
      val flagged = df.filter(flags.reduce(_ || _)).select(col("*") +: flags: _*)
      // Flags are read from the internal rows, so only kept rows are copied,
      // shipped and turned into `Row`s (on the driver, as `collect` does).
      val kept = flagged.queryExecution.toRdd.mapPartitions { it =>
        val taken = new Array[Int](nq)
        var open  = nq // queries with fewer than maxRows matches in this partition so far
        it.takeWhile(_ => open > 0).flatMap { r =>
          val ks = (0 until nq).filter(k => r.getBoolean(width + k) && taken(k) < maxRows)
          ks.foreach { k => taken(k) += 1; if (taken(k) == maxRows) open -= 1 }
          if (ks.isEmpty) None else Some((ks.toArray, r.copy()))
        }
      }.collect()
      val toRow = ExpressionEncoder(df.schema).resolveAndBind().createDeserializer()
      val rows = Vector.fill(nq)(Vector.newBuilder[Row])
      val sizes = new Array[Int](nq)
      for ((ks, internal) <- kept) {
        val row = toRow(internal)
        for (k <- ks if sizes(k) < maxRows) { rows(k) += row; sizes(k) += 1 }
      }
      queries.zip(rows).map { case (q, b) => Sample(q.tag, b.result(), df.schema) }
        .filter(_.rows.nonEmpty).toVector
    }
  }
}
