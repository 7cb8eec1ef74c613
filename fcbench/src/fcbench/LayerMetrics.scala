package fcbench

import fcbench.Bench.{Metric, SparkCores, median}
import fcbench.Tracer.Span

/** Per-layer metrics from the traced loop's spans.
  *
  * A layer's value is the median over traced queries of its per-query
  * total (the query's own spans plus the probes run after it). A layer
  * that a workload runs only in set-up — the dense workloads' load,
  * coloring and driver cascade — is reported from the traced set-up. A
  * layer the workload never calls reports 0.
  */
object LayerMetrics {

  val DataFrameStages = Seq(
    "core.ColorfulDegrees.enColorfulCore",
    "core.Reductions.colorfulSupReduce",
    "core.Reductions.enColorfulSupReduce")

  def apply(spans: Seq[Span], self: Map[Int, Double], overheadS: Double): Seq[Metric] = {
    val byQuery = spans.filter(_.query >= 0).groupBy(_.query).values.toSeq
    val inSetup = spans.filter(_.query < 0)

    def agg(layer: String)(f: Seq[Span] => Double): Double = {
      val perQuery = byQuery.map(_.filter(_.name == layer)).filter(_.nonEmpty).map(f)
      if (perQuery.nonEmpty) median(perQuery)
      else Some(inSetup.filter(_.name == layer)).filter(_.nonEmpty).map(f).getOrElse(0.0)
    }
    def wall(layer: String): Double = agg(layer)(_.map(_.wallS).sum)
    def sum(layer: String, key: String): Double =
      agg(layer)(_.map(_.values.getOrElse(key, 0.0)).sum)
    def m(layer: String, key: String, unit: String, v: Double) =
      Metric(s"$layer.$key", unit, v)
    def count(layer: String, key: String) = m(layer, key, "count", sum(layer, key))
    def wallS(layer: String) = m(layer, "wall_s", "s", wall(layer))

    val stages = DataFrameStages.flatMap { l =>
      Seq(wallS(l), count(l, "spark_jobs"), m(l, "task_s", "s", sum(l, "task_s")),
        m(l, "shuffle_mb", "MB", sum(l, "shuffle_mb")),
        count(l, "vertices_out"), count(l, "edges_out"))
    }
    val search = "core.Pipeline.searchReduced"
    val maxRFC = "core.Search.maxRFC"
    stages ++ Seq(
      wallS("graph.AttributedGraph.toLocal"), count("graph.AttributedGraph.toLocal", "rows"),
      wallS("graph.Coloring.greedyLocal"), count("graph.Coloring.greedyLocal", "colors"),
      wallS("core.LocalReductions.cascade"), count("core.LocalReductions.cascade", "edges_out"),
      count("graph.LocalGraph.connectedComponents", "components_searched"),
      count("graph.LocalGraph.connectedComponents", "giant_vertices"),
      wallS("core.Heuristics.heurRFC"), count("core.Heuristics.heurRFC", "size"),
      count("core.Heuristics.heurRFC", "gap"),
      wallS(search), count(search, "nodes"), count(search, "tasks"),
      m(search, "task_s", "s", sum(search, "task_s")),
      m(search, "core_util", "ratio", agg(search) { ss =>
        ss.map(_.values.getOrElse("task_s", 0.0)).sum / (ss.map(_.wallS).sum * SparkCores)
      }),
      count(maxRFC, "nodes"),
      m(maxRFC, "nodes_per_s", "1/s", agg(maxRFC) { ss =>
        ss.map(_.values.getOrElse("nodes", 0.0)).sum / ss.map(_.wallS).sum
      }),
      count(maxRFC, "pruned_by_bound"), count(maxRFC, "truncated"),
      Metric("trace.overhead_s", "s", overheadS),
      Metric("trace.query_self_s", "s", agg("query")(_.map(s => self(s.id)).sum)))
  }

  /** Per-layer table: calls, wall and self time summed over the traced
    * loop and set-up, and the Spark jobs and tasks charged to the layer.
    */
  def printTable(spans: Seq[Span], self: Map[Int, Double]): Unit = {
    println(f"${"layer"}%-40s ${"calls"}%6s ${"wall_s"}%10s ${"self_s"}%10s ${"jobs"}%6s ${"tasks"}%7s")
    spans.groupBy(_.name).toSeq.sortBy(-_._2.map(_.wallS).sum).foreach { case (name, ss) =>
      def v(key: String) = ss.map(_.values.getOrElse(key, 0.0)).sum
      println(f"$name%-40s ${ss.length}%6d ${ss.map(_.wallS).sum}%10.3f " +
        f"${ss.map(s => self(s.id)).sum}%10.3f ${v("spark_jobs")}%6.0f ${v("tasks")}%7.0f")
    }
    val queries = spans.filter(s => s.name == "query")
    val children = spans.filter(s => queries.exists(_.id == s.parent))
    println(f"traced queries: ${queries.length}, query wall ${queries.map(_.wallS).sum}%.3f s, " +
      f"layer walls ${children.map(_.wallS).sum}%.3f s")
  }
}
