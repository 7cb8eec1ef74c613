package fcbench

import repro.core.{FairClique, Search}
import repro.graph.LocalGraph

/** Checks an answer against the *input* graph of a query.
  *
  * An answer passes when every id exists in the input, the vertices are
  * pairwise adjacent there, the attribute counts meet `(k, δ)`, and the
  * size equals the reference optimum.
  */
final class Checker(input: LocalGraph) {

  /** The reference optimum size for `(k, δ)`: the exact search with no
    * upper bounds on the unreduced input. It shares neither a reduction
    * backend nor a bound with the measured paths.
    */
  def referenceSize(k: Int, delta: Int): Int =
    Search.maxRFC(input, k, delta, repro.core.Bounds.BoundConfig.none).size

  /** `None` when `ids` is a correct answer, else the reason it is not. */
  def verify(ids: Array[Long], k: Int, delta: Int, reference: Int): Option[String] = {
    val idx = ids.map(id => java.util.Arrays.binarySearch(input.ids, id))
    if (idx.exists(_ < 0)) Some(s"unknown id in ${ids.mkString(",")}")
    else if (idx.distinct.length != idx.length) Some("repeated vertex")
    else if (!input.isClique(idx.toSeq)) Some("not a clique of the input")
    else {
      val (a, b) = FairClique.counts(input, idx.toSeq)
      if (ids.nonEmpty && !FairClique.isFair(a, b, k, delta)) Some(s"unfair: a=$a b=$b")
      else if (ids.length != reference) Some(s"size ${ids.length} != reference $reference")
      else None
    }
  }
}
