package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
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

/** Table II: % cost benefit of OPTASSIGN (K=0) for 4 customer accounts. */
object TableII {
  def main(args: Array[String]): Unit = {
    JobSession.get("tableII") // harness is metadata-only but keeps the entrypoint uniform
    println(f"${"Customer"}%-12s ${"Size(PB)"}%9s ${"2 mos %"}%9s ${"6 mos %"}%9s")
    ExpTiering.tableII().foreach(r =>
      println(f"${r.customer}%-12s ${r.totalPB}%9.3f ${r.benefit2mo}%9.2f ${r.benefit6mo}%9.2f"))
  }
}

/** Tables III + IV: tier-prediction confusion matrix and baseline comparison. */
object TableIII_IV {
  def main(args: Array[String]): Unit = {
    val t = ExpTiering.tableIII_IV(JobSession.get("tableIII_IV"))
    val conf = t.confusion
    println("Confusion matrix (rows = predicted, cols = ideal) " +
      s"labels=${conf.labels.mkString(",")}")
    for (p <- conf.labels.indices)
      println(conf.labels.indices.map(i => f"${conf(p, i)}%6d").mkString(" "))
    println(f"accuracy=${conf.accuracy}%.4f macroF1=${conf.macroF1}%.4f")
    println(f"\n${"Model"}%-42s ${"Access"}%-10s ${"Months"}%6s ${"Benefit"}%9s")
    t.tableIV.foreach(r =>
      println(f"${r.model}%-42s ${r.accessInfo}%-10s ${r.months}%6d ${r.benefitPct}%8.2f%%"))
  }
}

/** Table V: sampling-strategy and feature comparison for COMPREDICT. */
object TableV {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableV")
    println(f"${"Target"}%-20s ${"Training Data"}%-16s ${"Features"}%-18s ${"MAE"}%8s ${"MAPE"}%9s ${"R2"}%7s")
    ExpCompredict.tableV(spark, JobSession.sf).foreach(r =>
      println(f"${r.target}%-20s ${r.trainingData}%-16s ${r.features}%-18s " +
        f"${r.m.mae}%8.3f ${r.m.mape}%9.3f ${r.m.r2}%7.3f"))
  }
}

/** Table VI: model x scheme grid for compression-ratio prediction. */
object TableVI {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableVI")
    println(f"${"Model"}%-16s ${"Scheme"}%-16s ${"MAE"}%8s ${"MAPE"}%9s ${"R2"}%7s")
    ExpCompredict.tableVI(spark, JobSession.sf).foreach(r =>
      println(f"${r.model}%-16s ${r.scheme}%-16s ${r.m.mae}%8.3f ${r.m.mape}%9.3f ${r.m.r2}%7.3f"))
  }
}

/** Tables VII + VIII: ratio and decompression-speed prediction on the
  * uniform and Zipf-skew datasets.
  */
object TableVII_VIII {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableVII_VIII")
    for (skew <- Seq(false, true)) {
      val tag = if (skew) "TPC-H Skew" else "TPC-H 100GB (uniform)"
      val (ratio, dec) = ExpCompredict.tableVII_VIII(spark, JobSession.sf, skew)
      println(s"-- $tag: compression ratio (Table VII) --")
      ratio.foreach(r => println(f"${r.model}%-16s ${r.scheme}%-16s ${r.m}"))
      println(s"-- $tag: decompression sec/GB (Table VIII) --")
      dec.foreach(r => println(f"${r.model}%-16s ${r.scheme}%-16s ${r.m}"))
    }
  }
}

/** Table IX: full pipeline on Enterprise Data II. */
object TableIX {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableIX")
    println(ExpPipeline.format("Enterprise Data II",
      ExpPipeline.run(spark, ExpPipeline.enterpriseII, JobSession.sf)))
  }
}

/** Table X: full pipeline on TPC-H 100GB. */
object TableX {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableX")
    println(ExpPipeline.format("TPC-H 100GB",
      ExpPipeline.run(spark, ExpPipeline.tpch100, JobSession.sf)))
  }
}

/** Table XI: full pipeline on TPC-H 1TB. */
object TableXI {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("tableXI")
    println(ExpPipeline.format("TPC-H 1TB",
      ExpPipeline.run(spark, ExpPipeline.tpch1t, JobSession.sf)))
  }
}
