package repro.core

/** Outcome of one round of seed selection. `estTruncated` is the estimated
  * expected (truncated, for TRIM) spread of the returned seeds; `samples` and
  * `work` instrument the efficiency claims (Lemmas 3.8–3.10).
  */
final case class SelectResult(
    seeds: Array[Int],
    estTruncated: Double,
    samples: Long,
    work: Long,
    iterations: Int
)

/** TRIM — TRuncated Influence Maximization (Algorithm 2) and its batched
  * form TRIM-B (Algorithm 3).
  *
  * OPIM-C-style single-group design: start from θ_o mRR-sets, pick a batch
  * of b nodes by greedy maximum coverage (guarantee ρ_b = 1 − (1 − 1/b)^b),
  * bound its expected coverage from below (Λˡ, via the martingale bound of
  * Lemma A.2) and the optimum's from above (Λᵘ of the coverage over ρ_b), and
  * stop when Λˡ/Λᵘ ≥ ρ_b(1−ε̂), doubling the sample pool otherwise. At most T
  * iterations; the T-th returns unconditionally (the θ_max budget of Line 2
  * then guarantees the bound by [40]). With b = 1, ρ_1 = 1 and ln C(n_i, 1) =
  * ln n_i, so the schedule and stop rule are Algorithm 2's exactly.
  */
object Trim {

  /** ρ_b = 1 − (1 − 1/b)^b. */
  def rho(b: Int): Double = 1.0 - math.pow(1.0 - 1.0 / b, b)

  /** ln C(n, b) without overflow: Σ_{i=1..b} ln((n−b+i)/i). */
  def lnChoose(n: Int, b: Int): Double = {
    require(b >= 0 && b <= n, s"C($n, $b) undefined")
    var s = 0.0
    var i = 1
    while (i <= b) { s += math.log((n - b + i).toDouble / i); i += 1 }
    s
  }

  /** Lemma A.2 lower bound on E[Λ] given observed coverage and confidence a. */
  def lamLower(cov: Double, a: Double): Double = {
    val s = math.sqrt(cov + 2.0 * a / 9.0) - math.sqrt(a / 2.0)
    s * s - a / 18.0
  }

  /** Lemma A.2 upper bound on E[Λ] given observed coverage and confidence a. */
  def lamUpper(cov: Double, a: Double): Double = {
    val s = math.sqrt(cov + a / 2.0) + math.sqrt(a / 2.0)
    s * s
  }

  private val OneMinusInvE = 1.0 - 1.0 / math.E

  /** Parameters of Lines 1–5 shared by TRIM and the AdaptIM skeleton.
    * `target` is η_i for truncated estimation, n_i for vanilla RR estimation.
    */
  final case class Schedule(delta: Double, epsHat: Double, thetaMax: Double,
                            thetaO: Double, T: Int, a1: Double, a2: Double)

  def schedule(nI: Int, target: Int, eps: Double, lnCandidates: Double,
               rhoB: Double = 1.0, b: Int = 1): Schedule = {
    val delta = eps / (100.0 * OneMinusInvE * (1.0 - eps) * target)
    val epsHat = 99.0 * eps / (100.0 - eps)
    val ln6d = math.log(6.0 / delta)
    val sq = math.sqrt(ln6d) + math.sqrt((lnCandidates + ln6d) / rhoB)
    val thetaMax = 2.0 * nI * sq * sq / (b * epsHat * epsHat)
    val thetaO = math.max(1.0, thetaMax * b * epsHat * epsHat / nI)
    val T = math.ceil(math.log(thetaMax / thetaO) / math.log(2.0)).toInt + 1
    val lnT = math.log(3.0 * T / delta)
    Schedule(delta, epsHat, thetaMax, thetaO, T, lnT + lnCandidates, lnT)
  }

  /** Select a batch of (up to) `b` seeds from the residual graph behind `ctx`.
    *
    * With a truncated-estimator context (randomized multi-roots) this is
    * Algorithm 2 (b = 1) or Algorithm 3; with `vanillaRoots` the target is
    * n_i instead of η_i, which is the OPIM-C-style vanilla-spread selector
    * used by the AdaptIM baseline.
    */
  def select(ctx: MRRSamplerCtx, eps: Double, b: Int): SelectResult = {
    val nI = ctx.nI
    val bEff = math.min(b, nI)
    val rhoB = rho(bEff)
    val target = if (ctx.vanillaRoots) nI else ctx.etaI
    val sch = schedule(nI, target, eps, lnChoose(nI, bEff), rhoB, bEff)
    ctx.growTo(math.ceil(sch.thetaO).toLong)

    var t = 1
    while (true) {
      // Cover over the dense node-id space; active nodes never appear in a
      // residual mRR-set, so their coverage stays 0 and greedy never picks them.
      val (batch, covered) = Coverage.greedyCover(ctx.inactive.length, ctx.pool, bEff)
      val lamL = lamLower(covered, sch.a1)
      val lamU = lamUpper(covered / rhoB, sch.a2)
      if ((lamU > 0 && lamL / lamU >= rhoB * (1.0 - sch.epsHat)) || t == sch.T) {
        val est = target.toDouble * covered / ctx.pool.length
        return SelectResult(batch, est, ctx.totalSamples, ctx.totalWork, t)
      }
      t += 1
      ctx.growTo(math.min(ctx.pool.length * 2L, math.ceil(sch.thetaMax).toLong))
    }
    throw new IllegalStateException("unreachable")
  }
}
