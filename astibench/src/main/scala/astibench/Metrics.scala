package astibench

/** A reported figure: name, unit and value as measured. */
final case class Metric(name: String, unit: String, value: Double)

/** Per-setup figures of a traced run, each the median over the run's setups
  * except `coldS`, which is the first setup in the JVM.
  */
final case class SetupTimes(sparkS: Double, dfS: Double, csrS: Double, coldS: Double,
                            arcs: Long)

/** Counts a `SparkListener` collected over the traced pass. */
final case class SparkCounts(jobs: Long, tasks: Long, taskRunS: Double, resultBytes: Long)

/** Everything a traced run measured, before any arithmetic. */
final case class TracedRun(
    spans: IndexedSeq[Span],
    count: String => Double,
    totalS: Double,      // wall time of the traced pass
    untracedS: Double,   // mean wall time of the untraced passes just before and after it
    setup: SetupTimes,
    spark: SparkCounts,
    thresholdLocalS: Double,
    thresholdFanoutS: Double)

/** The reported metrics and the arithmetic that derives them. BENCHMARK.json
  * lists the same names and units; the launcher checks every result against it.
  */
object Metrics {

  val LocalOp = "MRRSamplerCtx.generate"
  val FanoutOp = "MRRSamplerCtx.generate[fanout]"

  /** Sample pools hold Int node ids. */
  val BytesPerInt = 4
  val MiB: Double = 1024.0 * 1024.0

  def endToEnd(runS: Double, edges: Double, setupS: Double, seeds: Double,
               feasibleFrac: Double): Seq[Metric] = Seq(
    Metric("run_s", "s", runS),
    Metric("edges", "count", edges),
    Metric("setup_s", "s", setupS),
    Metric("seeds", "count", seeds),
    Metric("feasible_frac", "ratio", feasibleFrac))

  def perLayer(t: TracedRun): Seq[Metric] = {
    import Trace._
    val c = t.count
    val samplerS = busySeconds(t.spans, "sampler")
    val coverageS = busySeconds(t.spans, "coverage")
    Seq(
      Metric("setup.spark_s", "s", t.setup.sparkS),
      Metric("setup.cold_s", "s", t.setup.coldS),
      Metric("graph.df_s", "s", t.setup.dfS),
      Metric("graph.csr_s", "s", t.setup.csrS),
      Metric("graph.arcs", "count", t.setup.arcs.toDouble),
      Metric("sampler.busy_s", "s", samplerS),
      Metric("sampler.calls", "count", c("sampler.calls")),
      Metric("sampler.fanout_calls", "count", c("sampler.fanout_calls")),
      Metric("sampler.fanout_s", "s", busySeconds(t.spans, "sampler", FanoutOp)),
      Metric("sampler.sets", "count", c("sampler.sets")),
      Metric("sampler.edges", "count", c("sampler.edges")),
      Metric("sampler.set_ints", "count", c("sampler.set_ints")),
      Metric("sampler.peak_pool_mb_computed", "MB", c("sampler.peak_pool_ints") * BytesPerInt / MiB),
      Metric("sampler.sets_per_s", "1/s", ratio(c("sampler.sets"), samplerS)),
      Metric("sampler.edges_per_s", "1/s", ratio(c("sampler.edges"), samplerS)),
      Metric("sampler.share", "ratio", ratio(samplerS, t.totalS)),
      Metric("coverage.busy_s", "s", coverageS),
      Metric("coverage.calls", "count", c("coverage.calls")),
      Metric("coverage.scanned_ints", "count", c("coverage.scanned_ints")),
      Metric("coverage.rescan_ratio", "ratio", ratio(c("coverage.scanned_ints"), c("sampler.set_ints"))),
      Metric("coverage.share", "ratio", ratio(coverageS, t.totalS)),
      Metric("select.self_s", "s", selfSeconds(t.spans, "select")),
      Metric("select.iterations", "count", c("select.iterations")),
      Metric("select.t_stops", "count", c("select.t_stops")),
      Metric("observe.busy_s", "s", busySeconds(t.spans, "observe")),
      Metric("observe.activated", "count", c("observe.activated")),
      Metric("asti.rounds", "count", c("asti.rounds")),
      Metric("asti.self_s", "s", selfSeconds(t.spans, "asti")),
      Metric("ateuc.busy_s", "s", busySeconds(t.spans, "ateuc")),
      Metric("ateuc.sets", "count", c("ateuc.sets")),
      Metric("ateuc.seeds", "count", c("ateuc.seeds")),
      Metric("spark.jobs", "count", t.spark.jobs.toDouble),
      Metric("spark.tasks", "count", t.spark.tasks.toDouble),
      Metric("spark.task_run_s", "s", t.spark.taskRunS),
      Metric("spark.result_mb", "MB", t.spark.resultBytes / MiB),
      Metric("threshold.local_s", "s", t.thresholdLocalS),
      Metric("threshold.fanout_s", "s", t.thresholdFanoutS),
      Metric("trace.total_s", "s", t.totalS),
      Metric("trace.overhead_s", "s", t.totalS - t.untracedS),
    )
  }

  /** A JSON number with every digit of `v`; whole values print as integers. */
  def number(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v is not a finite number")
    if (v.isWhole && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  /** The one-line result the launcher forwards as the run's last line. */
  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m =>
      s""""${m.name}": {"value": ${number(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
