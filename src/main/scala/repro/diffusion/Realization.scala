package repro.diffusion

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.CompactGraph
import repro.util.Rng

/** One live-edge realization φ of a probabilistic graph, represented lazily
  * as a pure function of a 64-bit trial seed (§2.1, live-edge procedure).
  *
  * Nothing is materialized: edge status (IC) / chosen in-edge (LT) is derived
  * by hashing `(seed, edge or node)`. The same `Realization` object therefore
  * yields consistent answers across all ASTI rounds — the progressive
  * revelation that adaptive policies require — and is trivially shippable to
  * executors.
  */
final class Realization(val graph: CompactGraph, val model: DiffusionModel, val seed: Long)
    extends Serializable {

  private val LtSalt = 0x517cc1b727220a95L

  /** IC: is edge e live under φ? */
  def icLive(e: Int): Boolean = Rng.uniform(seed, e) < graph.probs(e)

  /** LT: the single chosen in-edge id of node v, or -1 for "none".
    * The draw walks v's in-edges in deterministic (edge-id) order.
    */
  def ltChosen(v: Int): Int = {
    val u = Rng.uniform(seed, LtSalt ^ v.toLong)
    var acc = 0.0
    var i = graph.inOff(v)
    while (i < graph.inOff(v + 1)) {
      val e = graph.inEdge(i)
      acc += graph.probs(e)
      if (u < acc) return e
      i += 1
    }
    -1
  }

  /** Is edge e (into node `graph.dsts(e)`) live under φ in this model? */
  def liveInto(e: Int): Boolean = model match {
    case DiffusionModel.IC => icLive(e)
    case DiffusionModel.LT => ltChosen(graph.dsts(e)) == e
  }

  /** Forward-reachable set from `seeds` through live edges, restricted to
    * nodes where `eligible` holds (pass null for no restriction). Seeds that
    * are not eligible are skipped. This is exactly the set of nodes a batch
    * activates in the residual graph (§2.3).
    */
  def forwardReachable(seeds: Array[Int], eligible: Array[Boolean]): Array[Int] =
    Realization.reachable(graph, seeds, eligible, liveInto)

  /** Spread I_φ(S) (optionally restricted to a residual node set). */
  def spread(seeds: Array[Int], eligible: Array[Boolean] = null): Int =
    forwardReachable(seeds, eligible).length

  /** Materialized live edges as a DataFrame (src, dst) — the relation the
    * DuckDB reachability oracle runs over.
    */
  def liveEdgesDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    (0 until graph.m)
      .filter(liveInto)
      .map(e => (graph.srcs(e), graph.dsts(e)))
      .toDF("src", "dst")
  }
}

object Realization {

  /** Nodes reachable from `seeds` in `g` through edges where `live` holds,
    * restricted to nodes where `eligible` holds (pass null for no
    * restriction), in BFS order. Seeds that are not eligible are skipped.
    */
  def reachable(g: CompactGraph, seeds: Array[Int], eligible: Array[Boolean],
                live: Int => Boolean): Array[Int] = {
    val visited = new Array[Boolean](g.n)
    val queue = new java.util.ArrayDeque[Integer]()
    val out = Array.newBuilder[Int]
    seeds.foreach { s =>
      if (!visited(s) && (eligible == null || eligible(s))) {
        visited(s) = true; queue.add(s); out += s
      }
    }
    while (!queue.isEmpty) {
      val u = queue.poll().intValue()
      g.foreachOutEdge(u) { e =>
        val v = g.dsts(e)
        if (!visited(v) && (eligible == null || eligible(v)) && live(e)) {
          visited(v) = true; queue.add(v); out += v
        }
      }
    }
    out.result()
  }
}
