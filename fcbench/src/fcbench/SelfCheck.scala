package fcbench

import org.apache.spark.sql.SparkSession

import repro.core.{FairClique, Search}
import repro.synth.GraphGen

/** The benchmark's self-check on tiny inputs: the checker must accept a
  * correct answer and reject corrupted ones, and every workload must
  * produce a result in both modes (`run.py --selfcheck` then checks that
  * each result names every metric of `BENCHMARK.json` with its unit).
  */
object SelfCheck {

  def run(spark: SparkSession): Unit = {
    checkerRejectsCorruptAnswers()
    for (w <- Workloads.all; trace <- Seq(false, true)) {
      val out = Bench.run(spark, w, seed = 1, seconds = 0.5, trace, tiny = true, traceOut = None)
      println(s"FCBENCH_SELFCHECK ${w.name} ${if (trace) 1 else 0} ${out.json}")
    }
  }

  private def checkerRejectsCorruptAnswers(): Unit = {
    val (k, delta) = (3, 1)
    val (g, _) = GraphGen.randomLocalWithClique(40, 0.1, GraphGen.Planted(10, 5), seed = 7)
    val checker = new Checker(g)
    val reference = checker.referenceSize(k, delta)
    val best = Search.maxRFC(g, k, delta).clique
    require(reference == 10, s"expected the planted optimum 10, got $reference")
    def ids(vs: Seq[Int]): Array[Long] = vs.map(g.ids(_)).toArray
    def rejected(name: String, vs: Array[Long]): Unit = {
      val why = checker.verify(vs, k, delta, reference)
      require(why.isDefined, s"checker accepted a corrupted answer: $name")
      println(s"checker rejects $name: ${why.get}")
    }
    require(checker.verify(ids(best.toSeq), k, delta, reference).isEmpty,
      "checker rejected the optimum")

    // swap in a vertex of the same attribute that misses a member
    val outsider = (0 until g.n).find(v => !best.contains(v) &&
      g.attr(v) == g.attr(best(0)) && !g.hasEdge(v, best(1))).get
    rejected("a non-adjacent vertex swapped in", ids(outsider +: best.drop(1).toSeq))

    // drop attribute a below k while keeping a clique
    val (as, bs) = best.partition(g.attr(_) == 0)
    rejected("attribute a dropped below k", ids((as.take(k - 1) ++ bs).toSeq))

    // a smaller fair clique: right shape, wrong size
    val smaller = if (as.length >= bs.length) as.drop(1) ++ bs else as ++ bs.drop(1)
    val (sa, sb) = FairClique.counts(g, smaller.toSeq)
    require(FairClique.isFair(sa, sb, k, delta), "smaller answer should still be fair")
    rejected("a fair clique below the optimum", ids(smaller.toSeq))

    rejected("an unknown id", ids(best.toSeq).updated(0, g.ids.max + 1))
    println("FCBENCH_SELFCHECK_CHECKER ok")
  }
}
