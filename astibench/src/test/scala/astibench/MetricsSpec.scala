package astibench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

class MetricsSpec extends AnyFunSuite {

  private val s = 1000000000L // ns per second

  /** One traced pass: a TRIM round with two sampler calls (one fanned out),
    * two coverage calls, an observe step and an ATEUC call.
    */
  private val run = TracedRun(
    spans = IndexedSeq(
      Span("asti", "Asti.run", 0, 10 * s, -1),
      Span("select", "Trim.select", 0, 8 * s, 0),
      Span("sampler", Metrics.LocalOp, 0, 2 * s, 1),
      Span("sampler", Metrics.FanoutOp, 3 * s, 6 * s, 1),
      Span("coverage", "Coverage.counts", 6 * s, 7 * s, 1),
      Span("coverage", "Coverage.topNode", 7 * s, 7 * s + s / 2, 1),
      Span("observe", "Realization.forwardReachable", 8 * s, 9 * s, 0),
      Span("ateuc", "Ateuc.select", 10 * s, 12 * s, -1),
    ),
    count = Map(
      "sampler.calls" -> 2.0, "sampler.fanout_calls" -> 1.0, "sampler.sets" -> 5000.0,
      "sampler.edges" -> 1e6, "sampler.set_ints" -> 4e4, "sampler.peak_pool_ints" -> 262144.0,
      "coverage.calls" -> 2.0, "coverage.scanned_ints" -> 6e4,
    ).withDefaultValue(0.0),
    totalS = 12.0,
    untracedS = 11.5,
    setup = SetupTimes(sparkS = 0.1, dfS = 1.5, csrS = 0.02, coldS = 13.0, arcs = 63496),
    spark = SparkCounts(jobs = 1, tasks = 4, taskRunS = 2.5, resultBytes = 3L << 20),
    thresholdLocalS = 0.08,
    thresholdFanoutS = 0.09)

  private lazy val layer = Metrics.perLayer(run).map(m => m.name -> m.value).toMap

  test("select self time is the select span minus its sampler and coverage spans") {
    assert(layer("select.self_s") == 8.0 - 2.0 - 3.0 - 1.0 - 0.5)
    assert(layer("asti.self_s") == 10.0 - 8.0 - 1.0)
  }

  test("sampler figures: busy, fan-out share, rates and the computed pool size") {
    assert(layer("sampler.busy_s") == 5.0)
    assert(layer("sampler.fanout_s") == 3.0)
    assert(layer("sampler.sets_per_s") == 1000.0)
    assert(layer("sampler.edges_per_s") == 2e5)
    assert(layer("sampler.peak_pool_mb_computed") == 1.0) // 262144 ints × 4 B
    assert(layer("sampler.share") == 5.0 / 12.0)
  }

  test("rescan ratio is the ints handed to coverage over the ints sampled") {
    assert(layer("coverage.rescan_ratio") == 1.5)
    assert(layer("coverage.busy_s") == 1.5)
    val empty = Metrics.perLayer(run.copy(count = Map.empty[String, Double].withDefaultValue(0.0)))
    assert(empty.find(_.name == "coverage.rescan_ratio").get.value == 0.0)
  }

  test("tracing overhead is the traced pass minus the untraced passes around it") {
    assert(layer("trace.overhead_s") == 0.5)
    assert(layer("ateuc.busy_s") == 2.0)
    assert(layer("spark.result_mb") == 3.0)
  }

  private def namesAndUnits(ms: Seq[Metric]) = ms.map(m => m.name -> m.unit)
  private val reported =
    Map("end_to_end" -> namesAndUnits(Metrics.endToEnd(12.5, 2e8, 2, 3, 1)),
        "per_layer" -> namesAndUnits(Metrics.perLayer(run)))

  test("metric names and units follow the benchmark's naming rules") {
    val name = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r
    val unit = "[A-Za-z0-9_/%.-]{1,16}".r
    val all = reported.values.flatten.toSeq
    assert(all.map(_._1).distinct.size == all.size, "metric names must be unique")
    all.foreach { case (n, u) =>
      assert(name.matches(n), n)
      assert(unit.matches(u), s"$n: $u")
    }
    assert(reported("end_to_end").contains("setup_s" -> "s"))
  }

  test("BENCHMARK.json declares exactly the metrics the harness reports") {
    val spec = new ObjectMapper().readTree(new File("..", "BENCHMARK.json"))
    reported.foreach { case (key, got) =>
      val declared =
        spec.get(key).elements.asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
      assert(declared == got, key)
    }
  }

  test("result JSON keeps every digit and prints whole values as integers") {
    val json = Metrics.resultJson(correct = true, attempted = 4, failed = 0,
      Seq(Metric("run_s", "s", 10.964606994), Metric("seeds", "count", 20.0)))
    val tree = new ObjectMapper().readTree(json)
    assert(tree.fieldNames.asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
    assert(tree.get("metrics").get("run_s").get("value").asDouble == 10.964606994)
    assert(json.contains("\"value\": 20,"))
    assert(Metrics.number(1.25e-7) == "1.25E-7")
    intercept[IllegalArgumentException](Metrics.number(Double.NaN))
  }

  test("median of odd and even samples") {
    assert(Metrics.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Metrics.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }
}
