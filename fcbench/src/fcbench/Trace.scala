package fcbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** In-memory spans around the benchmark's calls into the program's layers.
  *
  * A span has a name (the layer's `module.Object.function`), start and end
  * (ns), a parent and a query id; query id -1 marks set-up. Counts measured
  * at the call site are attached to the span as named values.
  *
  * Spark job, task and shuffle counters are attributed to the innermost
  * open span: the span id travels with each job as a Spark local property
  * (so the attribution survives the asynchronous listener bus), and every
  * task is charged to the span of the job that submitted its stage. The
  * layer calls run one at a time on the driver thread, so this is exact.
  */
final class Tracer(sc: SparkContext) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private val counters = new ConcurrentHashMap[Int, SparkCounters]()
  private val stageSpan = new ConcurrentHashMap[Int, Int]()

  sc.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val sid = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty)))
        .map(_.toInt).getOrElse(-1)
      if (sid >= 0) {
        e.stageIds.foreach(st => stageSpan.put(st, sid))
        counters.computeIfAbsent(sid, _ => new SparkCounters).synchronized {
          counters.get(sid).jobs += 1
        }
      }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val sid = stageSpan.getOrDefault(e.stageId, -1)
      if (sid >= 0 && e.taskMetrics != null) {
        val c = counters.computeIfAbsent(sid, _ => new SparkCounters)
        c.synchronized {
          c.tasks += 1
          c.taskMs += e.taskMetrics.executorRunTime
          c.shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten +
            e.taskMetrics.shuffleReadMetrics.totalBytesRead
        }
      }
    }
  })

  /** Run `f` inside a span named `name`; `f` may attach values to it. */
  def span[A](name: String, query: Int)(f: Span => A): A = {
    val s = Span(spans.length, name, stack.headOption.map(_.id).getOrElse(-1), query,
      System.nanoTime())
    spans += s
    stack = s :: stack
    sc.setLocalProperty(SpanProperty, s.id.toString)
    try f(s)
    finally {
      s.end = System.nanoTime()
      stack = stack.tail
      sc.setLocalProperty(SpanProperty, stack.headOption.map(_.id.toString).orNull)
    }
  }

  /** All spans, with Spark counters merged in. Drains the listener bus
    * first so that every finished task has been counted.
    */
  def finish(): Seq[Span] = {
    org.apache.spark.FcbenchBus.drain(sc)
    spans.foreach { s =>
      Option(counters.get(s.id)).foreach { c =>
        s.values("spark_jobs") = c.jobs.toDouble
        s.values("tasks") = c.tasks.toDouble
        s.values("task_s") = c.taskMs / 1e3
        s.values("shuffle_mb") = c.shuffleBytes / 1e6
      }
    }
    spans.toSeq
  }
}

object Tracer {
  val SpanProperty = "fcbench.span"

  final class SparkCounters {
    var jobs = 0L
    var tasks = 0L
    var taskMs = 0L
    var shuffleBytes = 0L
  }

  final case class Span(id: Int, name: String, parent: Int, query: Int, start: Long) {
    var end: Long = start
    val values: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
    def wallS: Double = (end - start) / 1e9
    def update(key: String, v: Double): Unit = values(key) = v
  }

  /** Self time of every span: its duration minus the union of its
    * children's intervals.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Double] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val ivs = kids.getOrElse(s.id, Seq.empty).map(c => (c.start, c.end)).sortBy(_._1)
      var covered = 0L
      var curS = Long.MinValue; var curE = Long.MinValue
      ivs.foreach { case (a, b) =>
        if (a > curE) { covered += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      covered += curE - curS
      s.id -> (s.end - s.start - covered) / 1e9
    }.toMap
  }

  /** Spans as JSON lines (name, start, end, parent, query id, values). */
  def toJsonLines(spans: Seq[Span], self: Map[Int, Double]): Seq[String] = spans.map { s =>
    val vals = s.values.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
    s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"query":${s.query},""" +
      s""""start_ns":${s.start},"end_ns":${s.end},"self_s":${Json.num(self(s.id))},""" +
      s""""values":{$vals}}"""
  }
}

/** JSON numbers: integral values without a fraction, NaN as null. */
object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)
}
