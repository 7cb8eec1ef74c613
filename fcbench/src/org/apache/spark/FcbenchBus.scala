package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * the tracer reads its counters only after every posted event has been
  * delivered.
  */
object FcbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
