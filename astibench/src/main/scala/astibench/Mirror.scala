package astibench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.diffusion.{DiffusionModel, Realization}
import repro.graph.CompactGraph
import repro.util.Rng

import scala.collection.mutable.ArrayBuffer

/** Traced replicas of `Asti.run` and `Trim.select`. Each makes the same
  * public calls, in the same order and with the same arguments, as the code it
  * mirrors, and wraps every call in a span of the layer it belongs to:
  *
  *  - `sampler`:  `MRRSamplerCtx.generate`
  *  - `coverage`: `Coverage.counts` / `topNode`
  *  - `select`:   the selection loop, including `Trim.schedule`/`lamLower`/`lamUpper`
  *  - `observe`:  `ResidualState`, `Realization.forwardReachable`, `ResidualState.activate`
  *  - `asti`:     the adaptive loop
  *  - `trace`:    the mirror's own bookkeeping, excluded from every layer's self time
  *
  * A replica can drift from the code it copies when that code changes. The
  * benchmark therefore compares the replica's seeds, samples and edge work
  * with the real call's and fails the run on any difference.
  */
object Mirror {

  /** Replica of `Asti.run` (the pre-broadcast variant). Its result carries no
    * wall time.
    */
  def astiRun(tr: Tracer, spark: SparkSession, bg: Broadcast[CompactGraph], eta: Int,
              eps: Double, selector: Selector, model: DiffusionModel,
              realizationSeed: Long, algoSeed: Long): AstiResult = tr.span("asti", "Asti.run") {
    val g = bg.value
    val state = tr.span("observe", "ResidualState") { new ResidualState(g, eta) }
    val real = new Realization(g, model, realizationSeed)
    var seeds = Vector.empty[Int]
    var rounds = 0
    var samples = 0L
    var work = 0L
    while (!state.reached) {
      rounds += 1
      val inactiveNodes = tr.span("observe", "ResidualState.inactiveNodes") { state.inactiveNodes }
      val ctx = new MRRSamplerCtx(
        spark, bg, state.inactive, inactiveNodes, state.etaI, model,
        selector.vanillaRoots, Rng.state(algoSeed, rounds))
      val sel = selector match {
        case TrimSelector | AdaptImSelector => trimSelect(tr, ctx, eps)
        case other => throw new UnsupportedOperationException(s"no replica of ${other.name}'s selection")
      }
      val activated = tr.span("observe", "Realization.forwardReachable") {
        real.forwardReachable(sel.seeds, state.inactive)
      }
      seeds ++= sel.seeds
      val added = tr.span("observe", "ResidualState.activate") { state.activate(activated) }
      tr.add("observe.activated", added)
      samples += sel.samples
      work += sel.work
    }
    tr.add("asti.rounds", rounds)
    AstiResult(seeds, rounds, state.nActive, samples, work, wallMillis = 0L)
  }

  /** The sample pool a selection loop grows by doubling, with the sampler
    * calls that fill it traced.
    */
  private final class Pool(tr: Tracer, ctx: MRRSamplerCtx) {
    val sets = ArrayBuffer.empty[Array[Int]]
    var generated = 0L
    var ints = 0L

    def grow(upTo: Long): Unit = {
      val need = (upTo - generated).toInt
      if (need > 0) {
        val fanout = need >= MRRSampler.SparkBatchThreshold
        val work0 = ctx.totalWork
        val batch = tr.span("sampler", if (fanout) Metrics.FanoutOp else Metrics.LocalOp) {
          ctx.generate(generated, need)
        }
        sets ++= batch
        generated += need
        tr.span("trace", "count") {
          val batchInts = batch.iterator.map(_.length.toLong).sum
          ints += batchInts
          tr.add("sampler.calls", 1)
          if (fanout) tr.add("sampler.fanout_calls", 1)
          tr.add("sampler.sets", need.toDouble)
          tr.add("sampler.edges", (ctx.totalWork - work0).toDouble)
          tr.add("sampler.set_ints", batchInts.toDouble)
          tr.peak("sampler.peak_pool_ints", ints.toDouble)
        }
      }
    }

    /** Record that a coverage call was handed the whole pool. */
    def scanned(): Unit = {
      tr.add("coverage.calls", 1)
      tr.add("coverage.scanned_ints", ints.toDouble)
    }
  }

  /** Replica of `Trim.select` (TRIM, and AdaptIM's vanilla variant). */
  def trimSelect(tr: Tracer, ctx: MRRSamplerCtx, eps: Double): SelectResult =
    tr.span("select", "Trim.select") {
      val nI = ctx.nI
      val target = if (ctx.vanillaRoots) nI else ctx.etaI
      val sch = Trim.schedule(nI, target, eps, math.log(nI.toDouble))
      val pool = new Pool(tr, ctx)
      pool.grow(math.ceil(sch.thetaO).toLong)
      var t = 1
      var result: SelectResult = null
      while (result == null) {
        val cov = tr.span("coverage", "Coverage.counts") { Coverage.counts(ctx.inactive.length, pool.sets) }
        pool.scanned()
        val (vStar, c) = tr.span("coverage", "Coverage.topNode") { Coverage.topNode(cov, ctx.inactive) }
        val lamL = Trim.lamLower(c, sch.a1)
        val lamU = Trim.lamUpper(c, sch.a2)
        val ratioStop = lamU > 0 && lamL / lamU >= 1.0 - sch.epsHat
        if (ratioStop || t == sch.T) {
          tr.add("select.iterations", t)
          if (!ratioStop) tr.add("select.t_stops", 1)
          val est = target.toDouble * c / pool.generated
          result = SelectResult(Array(vStar), est, ctx.totalSamples, ctx.totalWork, t)
        } else {
          t += 1
          pool.grow(math.min(pool.generated * 2, math.ceil(sch.thetaMax).toLong))
        }
      }
      result
    }
}
