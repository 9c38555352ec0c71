package astibench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.baselines.Ateuc
import repro.core._
import repro.diffusion.{DiffusionModel, Realization}
import repro.experiments.{ExpConfig, Table3}
import repro.graph.{CompactGraph, GraphGen}
import repro.util.Rng

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** A benchmark workload: one dataset, model and threshold, and the algorithm
  * call that a pass makes. Why each exists is recorded in README.md.
  */
final case class Workload(name: String, dataset: String, model: DiffusionModel,
                          etaFrac: Double, selector: Selector, table3Cell: Boolean)

/** Correctness gate: counts checked operations and the ones that failed. */
final class Gate {
  var attempted = 0
  var failed = 0
  var adaptive = 0
  var feasible = 0

  def check(what: String, ok: Boolean, detail: => String = ""): Unit = {
    attempted += 1
    if (!ok) { failed += 1; Console.err.println(s"[astibench] FAILED $what $detail") }
  }

  /** Re-simulate an adaptive result on its realization: spread ≥ η,
    * seeds ≤ η and rounds ≤ seeds.
    */
  def adaptiveRun(g: CompactGraph, model: DiffusionModel, eta: Int, realSeed: Long,
                  r: AstiResult): Unit = {
    val spread = new Realization(g, model, realSeed).spread(r.seeds.toArray)
    adaptive += 1
    if (spread >= eta) feasible += 1
    check("adaptive run", spread >= eta && r.numSeeds <= eta && r.rounds <= r.numSeeds,
      s"realization=$realSeed spread=$spread eta=$eta seeds=${r.numSeeds} rounds=${r.rounds}")
  }
}

/** Benchmark entry point.
  *
  * Usage: `astibench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  *
  * Untraced (`--trace 0`): set up `Setups` times and report the median, warm
  * up, then run the workload's pass, at least `MinPasses` times and until
  * `--seconds` have passed; report the mean pass time, the mean edges a pass
  * examines, seeds per realization and the feasible share. Traced
  * (`--trace 1`): the same set-up and warm-up, then an untraced pass, the same
  * pass through [[Mirror]] with spans around every layer call, and the same
  * untraced pass again; report per-layer metrics. The last stdout line is
  * the result JSON; the exit code is non-zero when any correctness check
  * failed.
  */
object Main {

  val Realizations = 5
  val Eps = 0.5
  val Scale = 1.0
  val Setups = 3
  val MinPasses = 2
  val WarmUpRuns = 3
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  val Workloads: Seq[Workload] = Seq(
    Workload("table3-nethept-ic", "nethept", DiffusionModel.IC, 0.1, TrimSelector, table3Cell = true),
    Workload("adaptim-nethept-lt", "nethept", DiffusionModel.LT, 0.1, AdaptImSelector, table3Cell = false),
  )

  /** The test realizations belong to the workload, like its dataset: the cost
    * of one varies by ±25%, which no affordable number of them averages out.
    * The benchmark seed drives what the program draws at random: the sampling
    * streams of every adaptive run and ATEUC's, new ones in every pass. Those
    * move a run's cost too, which is why a pass covers `Realizations` runs
    * rather than the 3 of a default Table 3 cell, and why the passes of a run
    * do not repeat each other's streams.
    */
  val RealizationSeed = 1234L

  /** Seeds of pass `p`; the warm-up is pass -1. */
  final case class Inputs(seed: Long) {
    def realSeed(r: Int): Long = Rng.state(RealizationSeed, 1000L + r)
    def algoSeed(p: Int, r: Int): Long = Rng.state(seed, 2000L + 1000L * p + r)
    def ateucSeed(p: Int): Long = Rng.state(seed, 10L + p)
  }

  final case class Setup(spark: SparkSession, g: CompactGraph, bg: Broadcast[CompactGraph])

  /** The set-ups of one run: the last one, which the run uses, plus each
    * set-up's wall time, its SparkSession start time, its `GraphGen.dataset`
    * time and the time of the CSR compile alone.
    */
  final case class SetUps(last: Setup, totalS: Seq[Double], sparkS: Seq[Double],
                          datasetS: Seq[Double], csrS: Seq[Double])

  /** What one pass returns: its adaptive results, the Table 3 cell if it
    * makes one, and the edges it examined (Lemma 3.8 work, ATEUC's included).
    */
  final case class PassOut(cell: Option[Table3.Cell], runs: Vector[AstiResult], edges: Long) {
    def sameAs(o: PassOut): Boolean =
      cell == o.cell && edges == o.edges &&
        runs.map(_.copy(wallMillis = 0)) == o.runs.map(_.copy(wallMillis = 0))
  }

  def eta(w: Workload, g: CompactGraph): Int = math.max(1, (g.n * w.etaFrac).toInt)

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** `body`'s result and its wall time in seconds. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, seconds(t0))
  }

  def newSession(): SparkSession = {
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("astibench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
  }

  /** Start Spark, build the graph and broadcast it, `Setups` times; each
    * set-up but the last is torn down. After each, outside its timed part,
    * compile the CSR graph again from the arcs `GraphGen.dataset` returned
    * (`weightedCascade` is that call's last step, and the arcs keep their
    * order), so the graph build splits into DataFrame and CSR stages.
    */
  def setUp(w: Workload): SetUps = {
    var last: Setup = null
    val total = ArrayBuffer.empty[Double]
    val sparkS = ArrayBuffer.empty[Double]
    val datasetS = ArrayBuffer.empty[Double]
    val csrS = ArrayBuffer.empty[Double]
    (0 until Setups).foreach { _ =>
      if (last != null) last.spark.stop()
      val t0 = System.nanoTime()
      val spark = newSession()
      sparkS += seconds(t0)
      val (g, gS) = timed(GraphGen.dataset(spark, w.dataset, Scale, ExpConfig.graphSeed))
      datasetS += gS
      last = Setup(spark, g, spark.sparkContext.broadcast(g))
      total += seconds(t0)
      csrS += timed(CompactGraph.weightedCascade(g.n, g.srcs.zip(g.dsts).toSeq))._2
    }
    SetUps(last, total.toSeq, sparkS.toSeq, datasetS.toSeq, csrS.toSeq)
  }

  /** Untimed warm-up, gated like every other run: `WarmUpRuns` adaptive runs
    * on realizations the timed passes do not use, and for the Table 3 workload
    * one ATEUC call with another seed.
    */
  def warmUp(w: Workload, s: Setup, in: Inputs, gate: Gate): Unit = {
    val e = eta(w, s.g)
    if (w.table3Cell) Ateuc.select(s.spark, s.bg, e, w.model, in.ateucSeed(-1))
    (Realizations until Realizations + WarmUpRuns).foreach { i =>
      val r = Asti.run(s.spark, s.bg, e, Eps, w.selector, w.model, in.realSeed(i), in.algoSeed(-1, i))
      gate.adaptiveRun(s.g, w.model, e, in.realSeed(i), r)
    }
  }

  /** Pass `p` of the workload: the calls a user of the program makes. With a
    * tracer, every adaptive run goes through [[Mirror]] and the ATEUC calls are
    * spanned; the results must not change.
    *
    * The Table 3 pass is the body of `Table3.runCell` (ATEUC, then each ASTI
    * run followed by a re-simulation of ATEUC's seeds on its realization).
    * `runCell` itself derives realizations and sampling streams from one seed,
    * so it cannot hold the realizations fixed.
    */
  def pass(w: Workload, s: Setup, in: Inputs, p: Int, tr: Tracer = null): PassOut = {
    val e = eta(w, s.g)
    def spanned[A](op: String)(body: => A): A = if (tr == null) body else tr.span("ateuc", op)(body)
    def run(r: Int): AstiResult =
      if (tr == null)
        Asti.run(s.spark, s.bg, e, Eps, w.selector, w.model, in.realSeed(r), in.algoSeed(p, r))
      else Mirror.astiRun(tr, s.spark, s.bg, e, Eps, w.selector, w.model, in.realSeed(r), in.algoSeed(p, r))
    if (!w.table3Cell) {
      val runs = (0 until Realizations).map(run).toVector
      PassOut(None, runs, runs.map(_.work).sum)
    }
    else {
      val ateuc = spanned("Ateuc.select") {
        Ateuc.select(s.spark, s.bg, e, w.model, in.ateucSeed(p))
      }
      if (tr != null) { tr.add("ateuc.sets", ateuc.samples.toDouble); tr.add("ateuc.seeds", ateuc.numSeeds) }
      var feasible = 0
      val runs = (0 until Realizations).map { r =>
        val res = run(r)
        val spread = spanned("Realization.spread") {
          new Realization(s.g, w.model, in.realSeed(r)).spread(ateuc.seeds)
        }
        if (spread >= e) feasible += 1
        res
      }.toVector
      val cell = Table3.Cell(w.dataset, w.model, w.etaFrac, e,
        runs.map(_.numSeeds).sum.toDouble / Realizations, ateuc.numSeeds, feasible, Realizations)
      PassOut(Some(cell), runs, runs.map(_.work).sum + ateuc.work)
    }
  }

  /** Re-simulate every adaptive result of a pass; report ATEUC's misses. */
  def gatePass(w: Workload, s: Setup, in: Inputs, out: PassOut, gate: Gate): Unit = {
    out.runs.zipWithIndex.foreach { case (r, i) =>
      gate.adaptiveRun(s.g, w.model, eta(w, s.g), in.realSeed(i), r)
      println(s"realization $i: seeds=${r.numSeeds} rounds=${r.rounds} samples=${r.samples} " +
              s"work=${r.work} ms=${r.wallMillis}")
    }
    out.cell.foreach(c => println(
      s"ateuc seeds=${c.ateucSeeds} feasible=${c.feasibleRealizations}/${c.realizations} " +
      "(a result, not gated: ATEUC is non-adaptive and may miss η)"))
  }

  /** Passes until at least `MinPasses` have run and `budgetS` has passed.
    * Pass time and work are means over the passes, which draw different
    * sampling streams.
    */
  def untraced(w: Workload, in: Inputs, budgetS: Double, gate: Gate): Seq[Metric] = {
    val setUps = setUp(w)
    val s = setUps.last
    warmUp(w, s, in, gate)
    val times = ArrayBuffer.empty[Double]
    val outs = ArrayBuffer.empty[PassOut]
    val start = System.nanoTime()
    while (outs.size < MinPasses || seconds(start) < budgetS) {
      val (out, t) = timed(pass(w, s, in, outs.size))
      times += t
      outs += out
    }
    outs.foreach(gatePass(w, s, in, _, gate))
    val runS = times.sum / times.size
    val edges = outs.map(_.edges).sum.toDouble / outs.size
    val runs = outs.flatMap(_.runs)
    println(f"${w.name}: run_s=$runS%.3f s (passes ${times.map(t => f"$t%.3f").mkString(",")} s) " +
            f"edges=${outs.map(_.edges).mkString(",")} setups=${setUps.totalS.map(t => f"$t%.3f").mkString(",")} s")
    Metrics.endToEnd(runS, edges, Metrics.median(setUps.totalS),
                     runs.map(_.numSeeds.toDouble).sum / runs.size, gate.feasible.toDouble / gate.adaptive)
  }

  /** Time `MRRSamplerCtx.generateLocal` against `generateSpark` at the fan-out
    * threshold, on the workload's first round, and check they agree.
    */
  def thresholdProbe(w: Workload, s: Setup, in: Inputs, gate: Gate): (Double, Double) = {
    val state = new ResidualState(s.g, eta(w, s.g))
    def ctx() = new MRRSamplerCtx(s.spark, s.bg, state.inactive, state.inactiveNodes, state.etaI,
                                  w.model, w.selector.vanillaRoots, Rng.state(in.algoSeed(0, 0), 1L))
    val count = MRRSampler.SparkBatchThreshold
    val local = ArrayBuffer.empty[Double]
    val fanout = ArrayBuffer.empty[Double]
    (0 until 3).foreach { _ =>
      val t0 = System.nanoTime()
      val a = ctx().generateLocal(0L, count)
      local += seconds(t0)
      val t1 = System.nanoTime()
      val b = ctx().generateSpark(0L, count)
      fanout += seconds(t1)
      gate.check("driver and fan-out sampling agree",
        a.length == b.length && a.indices.forall(i => a(i).sameElements(b(i))))
    }
    (Metrics.median(local.toSeq), Metrics.median(fanout.toSeq))
  }

  def traced(w: Workload, in: Inputs, gate: Gate): Seq[Metric] = {
    val setUps = setUp(w)
    val s = setUps.last
    warmUp(w, s, in, gate)
    val (plain, beforeS) = timed(pass(w, s, in, 0))
    gatePass(w, s, in, plain, gate)

    val counters = new SparkCounters(s.spark.sparkContext)
    val tr = new Tracer
    val (mirrored, totalS) = timed(pass(w, s, in, 0, tr))
    val sparkCounts = counters.read()
    gate.check("traced replica reproduces the program's seeds, samples and edge work",
      mirrored.sameAs(plain),
      s"replica=${mirrored.runs.map(r => (r.numSeeds, r.samples, r.work))} " +
        s"program=${plain.runs.map(r => (r.numSeeds, r.samples, r.work))}")
    // Untraced passes on both sides of the traced one, so that warm-up during
    // the run does not count as tracing overhead.
    val (again, afterS) = timed(pass(w, s, in, 0))
    gate.check("repeated pass gives identical results", again.sameAs(plain))
    val (localS, fanoutS) = thresholdProbe(w, s, in, gate)

    val setup = SetupTimes(
      sparkS = Metrics.median(setUps.sparkS),
      dfS = Metrics.median(setUps.datasetS.zip(setUps.csrS).map { case (d, c) => d - c }),
      csrS = Metrics.median(setUps.csrS),
      coldS = setUps.totalS.head,
      arcs = s.g.m)
    println(f"${w.name}: untraced passes=$beforeS%.3f,$afterS%.3f s traced pass=$totalS%.3f s")
    Metrics.perLayer(TracedRun(tr.spans, tr.count, totalS, (beforeS + afterS) / 2, setup,
                               sparkCounts, localS, fanoutS))
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val w = Workloads.find(_.name == opt("--workload")).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload; known: ${Workloads.map(_.name).mkString(", ")}"))
    val in = Inputs(Rng.state(opt("--seed").toLong, 1L))
    val budgetS = opt("--seconds").toDouble
    val trace = opt("--trace") == "1"

    val gate = new Gate
    val metrics =
      try if (trace) traced(w, in, gate) else untraced(w, in, budgetS, gate)
      catch {
        case NonFatal(e) =>
          e.printStackTrace()
          gate.check("workload ran to completion", ok = false, e.toString)
          Seq.empty
      }
    val correct = gate.failed == 0
    println(Metrics.resultJson(correct, math.max(1, gate.attempted), gate.failed, metrics))
    SparkSession.getDefaultSession.foreach(_.stop())
    sys.exit(if (correct) 0 else 1)
  }
}
