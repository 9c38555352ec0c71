package astibench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  test("covered merges overlapping intervals and clips them to the parent") {
    assert(Trace.covered(0, 100, Seq((10L, 40L), (30L, 50L))) == 40)
    assert(Trace.covered(0, 100, Seq((60L, 70L), (10L, 20L))) == 20)
    assert(Trace.covered(20, 100, Seq((10L, 30L), (90L, 120L))) == 20)
    assert(Trace.covered(0, 100, Nil) == 0)
  }

  test("self time subtracts direct children only") {
    val spans = IndexedSeq(
      Span("asti", "Asti.run", 0, 200, -1),
      Span("select", "Trim.select", 0, 100, 0),
      Span("sampler", Metrics.LocalOp, 10, 40, 1),
      Span("coverage", "Coverage.counts", 50, 70, 1),
      Span("trace", "count", 80, 85, 1),
      Span("observe", "Realization.forwardReachable", 120, 130, 0),
    )
    assert(Trace.selfNanos(spans) == IndexedSeq(90L, 45L, 30L, 20L, 5L, 10L))
    assert(Trace.selfSeconds(spans, "select") == 45e-9)
    assert(Trace.busySeconds(spans, "select") == 100e-9)
  }

  test("busy time sums every span of a layer, or of one op") {
    val spans = Seq(
      Span("sampler", Metrics.LocalOp, 0, 10, -1),
      Span("sampler", Metrics.FanoutOp, 20, 50, -1),
      Span("coverage", "Coverage.counts", 50, 55, -1),
    )
    assert(Trace.busySeconds(spans, "sampler") == 40e-9)
    assert(Trace.busySeconds(spans, "sampler", Metrics.FanoutOp) == 30e-9)
  }

  test("Tracer nests spans by call structure and closes them on exceptions") {
    val tr = new Tracer
    tr.span("select", "Trim.select") {
      tr.span("sampler", Metrics.LocalOp)(())
      intercept[IllegalStateException] {
        tr.span("coverage", "Coverage.counts")(throw new IllegalStateException)
      }
    }
    tr.span("observe", "ResidualState")(())
    val s = tr.spans
    assert(s.map(_.parent) == IndexedSeq(-1, 0, 0, -1))
    assert(s.forall(x => x.end >= x.start && x.start > 0))
    assert(s(0).start <= s(1).start && s(2).end <= s(0).end)
  }

  test("counters add and keep peaks") {
    val tr = new Tracer
    tr.add("sampler.sets", 3)
    tr.add("sampler.sets", 4)
    tr.peak("sampler.peak_pool_ints", 10)
    tr.peak("sampler.peak_pool_ints", 7)
    assert(tr.count("sampler.sets") == 7)
    assert(tr.count("sampler.peak_pool_ints") == 10)
    assert(tr.count("never.set") == 0)
  }

  test("ratio is 0 without a base") {
    assert(Trace.ratio(3, 0) == 0)
    assert(Trace.ratio(3, 2) == 1.5)
  }
}
