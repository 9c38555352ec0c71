package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.CompactGraph
import repro.util.Rng

/** Per-round seed selection policy plugged into the ASTI loop: every
  * selector runs `Trim.select` and differs only in its inputs.
  *
  * @param b            batch size per round (1 for TRIM and AdaptIM)
  * @param vanillaRoots whether the sampler draws vanilla single-root RR-sets
  *                     (AdaptIM) instead of truncated-estimator multi-roots
  *                     (TRIM/TRIM-B)
  */
sealed abstract class Selector(val b: Int, val vanillaRoots: Boolean, val name: String)

/** ASTI instantiated by TRIM (batch size 1). */
case object TrimSelector extends Selector(1, false, "ASTI")

/** ASTI instantiated by TRIM-B with batch size b (paper's ASTI-b). */
final case class TrimBSelector(override val b: Int) extends Selector(b, false, s"ASTI-$b")

/** AdaptIM baseline: same adaptive loop, but each round maximizes the vanilla
  * expected marginal spread with single-root RR-sets (Han et al. VLDB'18,
  * modified for seed minimization as in §6.1). No truncation — which is
  * exactly why its per-round sample count scales with n_i/OPT′_i instead of
  * η_i/OPT_i.
  */
case object AdaptImSelector extends Selector(1, true, "ADAPTIM")

/** Result of one adaptive run on one realization. */
final case class AstiResult(
    seeds: Vector[Int],
    rounds: Int,
    finalSpread: Int,
    samples: Long,
    work: Long,
    wallMillis: Long
) {
  def numSeeds: Int = seeds.size
}

/** ASTI — Adaptive Seed minimization via Truncated Influence maximization
  * (Algorithm 1): repeatedly (i) select the node/batch maximizing the
  * expected marginal *truncated* spread on the residual graph, (ii) observe
  * its actual propagation under the (progressively revealed) realization φ,
  * (iii) prune the activated nodes, until at least η nodes are active.
  */
object Asti {

  def run(spark: SparkSession, g: CompactGraph, eta: Int, eps: Double,
          selector: Selector, model: DiffusionModel, realizationSeed: Long,
          algoSeed: Long = 7): AstiResult = {
    val bg = spark.sparkContext.broadcast(g)
    try run(spark, bg, eta, eps, selector, model, realizationSeed, algoSeed)
    finally bg.destroy()
  }

  /** Variant taking a pre-broadcast graph so experiment grids reuse it. */
  def run(spark: SparkSession, bg: Broadcast[CompactGraph], eta: Int, eps: Double,
          selector: Selector, model: DiffusionModel, realizationSeed: Long,
          algoSeed: Long): AstiResult = {
    val g = bg.value
    val state = new ResidualState(g, eta)
    val real = new Realization(g, model, realizationSeed)
    val t0 = System.nanoTime()
    var seeds = Vector.empty[Int]
    var rounds = 0
    var samples = 0L
    var work = 0L
    while (!state.reached) {
      rounds += 1
      val ctx = new MRRSamplerCtx(
        spark, bg, state.inactive, state.inactiveNodes, state.etaI, model,
        selector.vanillaRoots, Rng.state(algoSeed, rounds))
      val sel = Trim.select(ctx, eps, selector.b)
      require(sel.seeds.nonEmpty, s"selector ${selector.name} returned no seeds")
      // Observe: the batch activates its forward-reachable set among the
      // still-inactive nodes under φ (Lines 4–6 of Algorithm 1).
      val activated = real.forwardReachable(sel.seeds, state.inactive)
      seeds ++= sel.seeds
      state.activate(activated)
      samples += sel.samples
      work += sel.work
    }
    AstiResult(seeds, rounds, state.nActive, samples, work,
               (System.nanoTime() - t0) / 1000000L)
  }
}
