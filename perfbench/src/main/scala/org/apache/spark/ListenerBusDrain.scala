package org.apache.spark

/** Waits until every queued listener event has been delivered.
  *
  * `LiveListenerBus.waitUntilEmpty` is package-private to Spark; the traced
  * run calls it before reading its listener's counters, so the counts cover
  * every job that finished before the call.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMillis: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)
}
