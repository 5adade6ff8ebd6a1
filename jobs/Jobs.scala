package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  // Starting the session logs "WARN NativeCodeLoader: Unable to load
  // native-hadoop library for your platform" once per JVM: Spark's bundled
  // Hadoop finds no libhadoop.so and uses its built-in Java classes. Nothing
  // here needs the native library: the lake lives in memory, and the codecs
  // are java.util.zip, snappy-java and lz4-java, which load their own.
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  /** Bench scale by default; override with REPRO_SF for quick runs. */
  def sf: Double = sys.env.getOrElse("REPRO_SF", "0.1").toDouble
}

/** Table II: % cost benefit of OPTASSIGN (K=0) for 4 customer accounts (no Spark). */
object TableII {
  def main(args: Array[String]): Unit = ExpTiering.formatII(ExpTiering.tableII()).foreach(println)
}

/** Tables III + IV: tier-prediction confusion matrix and baseline comparison. */
object TableIII_IV {
  def main(args: Array[String]): Unit =
    ExpTiering.formatIII_IV(ExpTiering.tableIII_IV(JobSession.get("tableIII_IV"))).foreach(println)
}

/** Table V: sampling-strategy and feature comparison for COMPREDICT. */
object TableV {
  def main(args: Array[String]): Unit =
    ExpCompredict.formatV(ExpCompredict.tableV(JobSession.get("tableV"), JobSession.sf)).foreach(println)
}

/** Table VI: model x scheme grid for compression-ratio prediction. */
object TableVI {
  def main(args: Array[String]): Unit =
    ExpCompredict.formatGrid(ExpCompredict.tableVI(JobSession.get("tableVI"), JobSession.sf)).foreach(println)
}

/** Tables VII + VIII: ratio and decompression-speed prediction on the
  * uniform and Zipf-skew datasets.
  */
object TableVII_VIII {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableVII_VIII")
    for (skew <- Seq(false, true))
      ExpCompredict.formatVII_VIII(ExpCompredict.tableVII_VIII(spark, JobSession.sf, skew)).foreach(println)
  }
}

/** Tables IX–XI: the full pipeline on one config. */
abstract class PipelineJob(cfg: ExpPipeline.Config) {
  def main(args: Array[String]): Unit =
    ExpPipeline.format(cfg.name, ExpPipeline.run(JobSession.get(cfg.name), cfg, JobSession.sf)).foreach(println)
}

/** Table IX: full pipeline on Enterprise Data II. */
object TableIX extends PipelineJob(ExpPipeline.enterpriseII)

/** Table X: full pipeline on TPC-H 100GB. */
object TableX extends PipelineJob(ExpPipeline.tpch100)

/** Table XI: full pipeline on TPC-H 1TB. */
object TableXI extends PipelineJob(ExpPipeline.tpch1t)
