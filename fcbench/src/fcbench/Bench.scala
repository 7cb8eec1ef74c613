package fcbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.graph.{AttributedGraph, Coloring, LocalGraph}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Fair-clique query benchmark: one client in a closed loop sends queries
  * through the program's public entry points (`Pipeline.run`,
  * `Pipeline.searchReduced`) with `MaxFairCliqueJob`'s configuration,
  * checks every answer, and reports end-to-end metrics. With `--trace 1`
  * it also runs a traced loop that times the calls into each layer and
  * reports per-layer metrics.
  *
  * Usage: Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *              --local-dir <dir> [--trace-out <file>] [--selfcheck]
  * The last stdout line starting with `FCBENCH_RESULT` holds the result.
  */
object Bench {

  /** Spark cores of the single local-mode JVM, pinned so that neither the
    * host's core count nor an environment variable changes the numbers.
    */
  val SparkCores = 4

  /** Graphs per run, each from its own seed: query time depends on the
    * graph a seed draws (peel rounds, search nodes), so every query of a
    * workload's mix runs on each of them.
    */
  val GraphsPerRun = 2

  /** `MaxFairCliqueJob`'s search configuration. */
  val JobConfig: Pipeline.Config = Pipeline.Config(
    bounds = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true),
    useHeuristic = true)

  final case class Metric(name: String, unit: String, value: Double)

  final case class Outcome(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
    def json: String = {
      val ms = metrics.map(m => s""""${m.name}":{"value":${Json.num(m.value)},"unit":"${m.unit}"}""")
      s"""{"correct":$correct,"attempted":$attempted,"failed":$failed,"metrics":{${ms.mkString(",")}}}"""
    }
  }

  def main(argv: Array[String]): Unit = {
    val opts = argv.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    def opt(key: String): String = opts.getOrElse(key,
      throw new IllegalArgumentException(s"missing $key"))
    val spark = session(opt("--local-dir"))
    try {
      if (argv.contains("--selfcheck")) SelfCheck.run(spark)
      else {
        val out = run(spark, Workloads.named(opt("--workload")), opt("--seed").toLong,
          opt("--seconds").toDouble, opt("--trace") == "1", tiny = false, opts.get("--trace-out"))
        println("FCBENCH_RESULT " + out.json)
      }
    } finally spark.stop()
  }

  /** The session as `MaxFairCliqueJob` builds it, with the master pinned
    * to `local[SparkCores]` and scratch files kept in `localDir`.
    */
  def session(localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$SparkCores]")
      .appName("fcbench")
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    println(s"spark: master=${s.sparkContext.master} ui=off driver.host=127.0.0.1 " +
      s"nproc=${Runtime.getRuntime.availableProcessors} " +
      s"heap_max_mb=${Runtime.getRuntime.maxMemory / (1 << 20)}")
    s
  }

  // ------------------------------------------------------------ set-up

  /** State a run's queries need: the generated graph, its local copy (the
    * checker's input) and, on dense workloads, the graph reduced for k.
    */
  final case class Prepared(g: AttributedGraph, input: Option[LocalGraph],
                            reduced: Option[LocalGraph])

  /** One query of a workload's mix: which of its graphs, k and δ. */
  final case class Query(graph: Int, k: Int, delta: Int)

  /** Generation and load of the run's graphs (graph `i` from seed
    * `seed * GraphsPerRun + i`), on dense workloads the reduction for k
    * (driver-side cascade), then one warm-up query.
    */
  def setup(spark: SparkSession, w: Workload, seed: Long, tiny: Boolean,
            tr: Option[Tracer]): Seq[Prepared] = {
    val prepared = (0 until GraphsPerRun).map(i =>
      prepare(spark, w, w.generate(spark, seed * GraphsPerRun + i, tiny), tr))
    plainQuery(spark, w, prepared.head, w.k, w.deltas.head)
    prepared
  }

  private def prepare(spark: SparkSession, w: Workload, g: AttributedGraph,
                      tr: Option[Tracer]): Prepared = {
    def span[A](name: String)(f: Tracer.Span => A): A = tr match {
      case Some(t) => t.span(name, -1)(f)
      case None => f(Tracer.Span(-1, name, -1, -1, 0L))
    }
    if (w.dense) {
      val lg = span("graph.AttributedGraph.toLocal") { s =>
        val l = g.toLocal; s("rows") = l.n + l.m; l
      }
      val colors = span("graph.Coloring.greedyLocal") { s =>
        val c = Coloring.greedyLocal(lg); s("colors") = Coloring.numColors(c); c
      }
      val red = span("core.LocalReductions.cascade") { s =>
        val r = LocalReductions.cascade(lg, colors, w.k)._1; s("edges_out") = r.m; r
      }
      Prepared(g, Some(lg), Some(red))
    } else {
      g.numVertices; g.numEdges
      Prepared(g, None, None)
    }
  }

  // ------------------------------------------------------------ queries

  /** One untraced query: the program's public entry point. */
  def plainQuery(spark: SparkSession, w: Workload, p: Prepared, k: Int, delta: Int): Array[Long] =
    if (w.dense) Pipeline.searchReduced(spark, p.reduced.get, k, delta, JobConfig).cliqueIds
    else Pipeline.run(spark, p.g, k, delta, JobConfig).cliqueIds

  /** One traced query. On `sparse-peel` it makes `Pipeline.run`'s own
    * sequence of public calls (`Reductions.cascade`'s stages, `toLocal`,
    * `searchReduced`) so each gets a span. Afterwards, outside the query
    * span, probes time the layers that `searchReduced` calls internally,
    * and on `sparse-peel` the driver-side cascade. Returns the answer and
    * any disagreement between a layer's answer and the reference.
    */
  def tracedQuery(spark: SparkSession, tr: Tracer, q: Int, w: Workload, p: Prepared,
                  k: Int, delta: Int, reference: Int): (Array[Long], Seq[String]) = {
    import spark.implicits._
    val problems = mutable.ArrayBuffer.empty[String]
    var dfCascade: Option[(LocalGraph, Array[Int], Long)] = None
    val (red, res) = tr.span("query", q) { _ =>
      val red = if (w.dense) p.reduced.get else {
        val (lg, colorArr, g3) = tr.span("core.Reductions.cascade", q) { _ =>
          val lg = tr.span("graph.AttributedGraph.toLocal", q) { s =>
            val l = p.g.toLocal; s("rows") = l.n + l.m; l
          }
          val colorArr = tr.span("graph.Coloring.greedyLocal", q) { s =>
            val c = Coloring.greedyLocal(lg); s("colors") = Coloring.numColors(c); c
          }
          val colors = (0 until lg.n).map(i => (lg.ids(i), colorArr(i)))
            .toDF("id", "color").localCheckpoint(true)
          def stage(name: String)(f: => AttributedGraph): AttributedGraph =
            tr.span(name, q) { s =>
              val out = f
              s("vertices_out") = out.numVertices.toDouble
              s("edges_out") = out.numEdges.toDouble
              out
            }
          val g1 = stage("core.ColorfulDegrees.enColorfulCore")(
            ColorfulDegrees.enColorfulCore(p.g, colors, k - 1))
          val g2 = stage("core.Reductions.colorfulSupReduce")(
            Reductions.colorfulSupReduce(g1, colors, k))
          val g3 = stage("core.Reductions.enColorfulSupReduce")(
            Reductions.enColorfulSupReduce(g2, colors, k))
          (lg, colorArr, g3)
        }
        val red = tr.span("graph.AttributedGraph.toLocal", q) { s =>
          val l = g3.toLocal; s("rows") = l.n + l.m; l
        }
        dfCascade = Some((lg, colorArr, red.m))
        red
      }
      val res = tr.span("core.Pipeline.searchReduced", q) { s =>
        val r = Pipeline.searchReduced(spark, red, k, delta, JobConfig)
        s("nodes") = r.nodes.toDouble
        r
      }
      (red, res)
    }
    if (res.size != reference) problems += s"traced searchReduced size ${res.size} != $reference"

    tr.span("probe", q) { _ =>
      dfCascade.foreach { case (lg, colorArr, dfEdges) =>
        tr.span("core.LocalReductions.cascade", q) { s =>
          val m = LocalReductions.cascade(lg, colorArr, k)._1.m
          s("edges_out") = m.toDouble
          if (m != dfEdges) problems += s"LocalReductions.cascade edges $m != DataFrame $dfEdges"
        }
      }
      val heur = tr.span("core.Heuristics.heurRFC", q) { s =>
        val h = Heuristics.heurRFC(red, k, delta).clique
        s("size") = h.length; s("gap") = reference - h.length
        h
      }
      if (heur.length > reference) problems += s"heurRFC size ${heur.length} > $reference"
      tr.span("graph.LocalGraph.connectedComponents", q) { s =>
        val comps = red.connectedComponents
        s("components_searched") = comps.count(_.length >= math.max(2 * k, heur.length + 1))
        s("giant_vertices") = if (comps.isEmpty) 0 else comps.map(_.length).max
      }
      val exact = tr.span("core.Search.maxRFC", q) { s =>
        val r = Search.maxRFC(red, k, delta, JobConfig.bounds, heur)
        s("nodes") = r.nodes.toDouble
        s("pruned_by_bound") = r.prunedByBound.toDouble
        s("truncated") = if (r.truncated) 1 else 0
        r
      }
      if (exact.size != reference) problems += s"maxRFC size ${exact.size} != $reference"
    }
    (res.cliqueIds, problems.toSeq)
  }

  // ------------------------------------------------------------ the loop

  final class LoopStats {
    val latency = mutable.ArrayBuffer.empty[Double]
    var cpuS = 0.0
    var wallS = 0.0
    var failed = 0
    def attempted: Int = latency.length
  }

  private val cpuBean =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Closed loop with one client: the next query starts when the previous
    * answer has been checked. Whole passes over the query mix run until
    * `seconds` have passed, so every run measures the same mix.
    */
  def closedLoop(seconds: Double, mix: Seq[Query])
                (query: (Query, Int) => (Array[Long], Seq[String]))
                (check: (Array[Long], Query) => Option[String]): LoopStats = {
    val st = new LoopStats
    val start = System.nanoTime()
    var q = 0
    while (st.attempted == 0 || (System.nanoTime() - start) / 1e9 < seconds) {
      mix.foreach { qu =>
        val c0 = cpuBean.getProcessCpuTime
        val t0 = System.nanoTime()
        val outcome =
          try Right(query(qu, q))
          catch { case e: Exception => Left(s"threw $e") }
        st.latency += (System.nanoTime() - t0) / 1e9
        st.cpuS += (cpuBean.getProcessCpuTime - c0) / 1e9
        val why = outcome match {
          case Left(err) => Some(err)
          case Right((ids, problems)) => check(ids, qu).orElse(problems.headOption)
        }
        why.foreach { r =>
          st.failed += 1
          println(s"FAILED query $q ($qu): $r")
        }
        q += 1
      }
    }
    st.wallS = (System.nanoTime() - start) / 1e9
    st
  }

  /** Heap in use after full collections, in MB. Collects until the reading
    * stops falling (at most ten times): Spark's context cleaner frees
    * checkpointed blocks only after a collection has found their RDDs
    * unreachable.
    */
  def heapAfterGcMb(): Double = {
    def collect(): Long = {
      System.gc()
      Thread.sleep(250)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }
    var prev = Long.MaxValue
    var cur = collect()
    var i = 1
    while (i < 10 && cur < prev - (1L << 20)) { prev = cur; cur = collect(); i += 1 }
    cur / 1e6
  }

  // ------------------------------------------------------------ a run

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest sample with at least ten samples beyond it; the maximum
    * when there are fewer than eleven samples.
    */
  def tail(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length > 10) s(s.length - 11) else s.last
  }

  def run(spark: SparkSession, w: Workload, seed: Long, seconds: Double, trace: Boolean,
          tiny: Boolean, traceOut: Option[String]): Outcome = {
    println(s"workload=${w.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0} " +
      s"k=${w.k} deltas=${w.deltas.mkString(",")}")
    val tracer = if (trace) Some(new Tracer(spark.sparkContext)) else None
    val setupTimes = mutable.ArrayBuffer.empty[Double]
    var prep: Seq[Prepared] = Nil
    (0 until w.setups).foreach { i =>
      val t0 = System.nanoTime()
      prep = setup(spark, w, seed, tiny, if (i == w.setups - 1) tracer else None)
      setupTimes += (System.nanoTime() - t0) / 1e9
    }
    println(s"setup_s samples: ${setupTimes.map(t => f"$t%.3f").mkString(" ")}")

    val heapSetupMb = heapAfterGcMb()

    // The reference and the checker's input are outside set-up and the loop.
    val t0 = System.nanoTime()
    val checkers = prep.map(p => new Checker(p.input.getOrElse(p.g.toLocal)))
    val mix = for (g <- prep.indices; d <- w.deltas) yield Query(g, w.k, d)
    val reference = mix.map(q => q -> checkers(q.graph).referenceSize(q.k, q.delta)).toMap
    println(f"reference (maxRFC, no bounds, unreduced input): " +
      mix.map(q => s"$q -> ${reference(q)}").mkString("; ") +
      f" in ${(System.nanoTime() - t0) / 1e9}%.3f s")
    val check = (ids: Array[Long], q: Query) =>
      checkers(q.graph).verify(ids, q.k, q.delta, reference(q))

    val plain = closedLoop(seconds, mix)((q, _) =>
      (plainQuery(spark, w, prep(q.graph), q.k, q.delta), Nil))(check)
    val heapMb = math.max(heapSetupMb, heapAfterGcMb())
    val p50 = median(plain.latency.toSeq)
    println(s"query_s samples: ${plain.latency.map(t => f"$t%.3f").mkString(" ")}")
    println(f"untraced: ${plain.attempted} queries in ${plain.wallS}%.3f s, " +
      f"failed ${plain.failed}, fail_ratio ${plain.failed.toDouble / plain.attempted}%.4f")
    println(s"query_tail_s is the sample with ten samples beyond it " +
      s"(${plain.attempted} samples${if (plain.attempted <= 10) ", so the maximum" else ""})")

    tracer match {
      case None =>
        val metrics = Seq(
          Metric("query_p50_s", "s", p50),
          Metric("query_tail_s", "s", tail(plain.latency.toSeq)),
          Metric("queries_per_min", "1/min", plain.attempted / plain.wallS * 60),
          Metric("cpu_s_per_query", "s", plain.cpuS / plain.attempted),
          Metric("driver_heap_peak_mb", "MB", heapMb),
          Metric("setup_s", "s", median(setupTimes.toSeq)))
        metrics.foreach(m => println(f"${m.name}%-22s ${m.value}%14.6f ${m.unit}"))
        Outcome(plain.failed == 0, plain.attempted, plain.failed, metrics)

      case Some(tr) =>
        val traced = closedLoop(seconds, mix)((q, id) =>
          tracedQuery(spark, tr, id, w, prep(q.graph), q.k, q.delta, reference(q)))(check)
        val spans = tr.finish()
        val self = Tracer.selfTimes(spans)
        traceOut.foreach { path =>
          Files.write(Paths.get(path),
            Tracer.toJsonLines(spans, self).asJava, StandardCharsets.UTF_8)
          println(s"spans written to $path")
        }
        // the query spans, not the loop's latencies, which include the probes
        val overhead = median(spans.filter(_.name == "query").map(_.wallS)) - p50
        val metrics = LayerMetrics(spans, self, overhead)
        LayerMetrics.printTable(spans, self)
        metrics.foreach(m => println(f"${m.name}%-50s ${m.value}%16.6f ${m.unit}"))
        val failed = plain.failed + traced.failed
        val attempted = plain.attempted + traced.attempted
        Outcome(failed == 0, attempted, failed, metrics)
    }
  }
}
