package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so a
  * test's `SparkListener` has seen every job that already ran.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
