package org.apache.spark

/** Access to the one `private[spark]` call the benchmark's tracer needs:
  * waiting until the listener bus has delivered every queued event, so a
  * traced region's job spans are complete when they are read.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
