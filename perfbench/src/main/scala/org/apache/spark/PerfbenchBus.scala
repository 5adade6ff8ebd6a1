package org.apache.spark

/** Spark delivers listener events on a background thread and keeps the
  * drain call package-private. The benchmark reads its job log only after
  * every queued event was delivered, so job counts never depend on timing.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
