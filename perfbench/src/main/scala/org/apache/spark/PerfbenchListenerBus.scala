package org.apache.spark

/** The listener bus is private to Spark; the benchmark needs one call on it
  * so that its job and task counts include every event already posted.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
