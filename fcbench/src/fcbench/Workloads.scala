package fcbench

import org.apache.spark.sql.SparkSession

import repro.graph.AttributedGraph
import repro.synth.GraphGen
import repro.synth.GraphGen.{DenseBlock, Planted}

/** The benchmark's workloads. Every input comes from `GraphGen` and the
  * run's seed; the program sees only the generated graphs.
  *
  * @param dense  the query is `Pipeline.searchReduced` on a graph reduced
  *               once per k during set-up; otherwise it is `Pipeline.run`
  *               on the raw input
  * @param setups set-ups per run; `setup_s` is their median
  */
final case class Workload(name: String, k: Int, deltas: Seq[Int], dense: Boolean, setups: Int,
                          generate: (SparkSession, Long, Boolean) => AttributedGraph)

object Workloads {

  /** Power-law graphs like google-lite (alpha 0.8, planted near-balanced
    * cliques) at a fifteenth of its size, queried at its default (k, δ). The
    * density, three edges per vertex, is where the number of peel rounds
    * varies least between seeds. The DataFrame reductions do nearly all of
    * the work; the search almost none.
    */
  val sparsePeel: Workload = Workload("sparse-peel", k = 4, deltas = Seq(3), dense = false,
    setups = 1, (spark, seed, tiny) =>
      if (tiny) GraphGen.generate(spark, 60, 150, Seq(Planted(10, 5)), 0.85, seed)
      else GraphGen.generate(spark, 1000, 3000,
        Seq(Planted(12, 6), Planted(10, 5), Planted(8, 4)), 0.8, seed))

  /** One attribute-balanced dense community on a sparse background: after
    * reduction a single component remains, so the search runs as one
    * Spark task.
    */
  val denseGiant: Workload = Workload("dense-giant", k = 4, deltas = Seq(1, 2, 3), dense = true,
    setups = 3, (spark, seed, tiny) =>
      if (tiny) GraphGen.generate(spark, 60, 60, Seq.empty, 0.85, seed,
        blocks = Seq(DenseBlock(24, 0.7)))
      else GraphGen.generate(spark, 600, 600, Seq.empty, 0.85, seed,
        blocks = Seq(DenseBlock(200, 0.5))))

  val all: Seq[Workload] = Seq(sparsePeel, denseGiant)

  def named(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
