package astibench

import scala.collection.mutable

/** One timed call into a layer of the program. `parent` is the index of the
  * enclosing span in the same [[Tracer]], or -1 for a root span.
  */
final case class Span(layer: String, op: String, start: Long, end: Long, parent: Int) {
  def nanos: Long = end - start
}

/** In-memory span and counter recorder. Spans nest by call structure: a span
  * opened while another is open becomes its child. Nothing is written until
  * the run ends.
  */
final class Tracer {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  /** Time `body` as one span of `layer`, recording `op` as the call made. */
  def span[A](layer: String, op: String)(body: => A): A = {
    val id = done.length
    done += Span(layer, op, System.nanoTime(), -1L, open.headOption.getOrElse(-1))
    open = id :: open
    try body
    finally {
      open = open.tail
      done(id) = done(id).copy(end = System.nanoTime())
    }
  }

  def add(counter: String, delta: Double): Unit =
    counters(counter) = counters.getOrElse(counter, 0.0) + delta

  /** Raise `counter` to `value` if that is larger (a peak). */
  def peak(counter: String, value: Double): Unit =
    counters(counter) = math.max(counters.getOrElse(counter, 0.0), value)

  def count(counter: String): Double = counters.getOrElse(counter, 0.0)

  def spans: IndexedSeq[Span] = done.toIndexedSeq
}

/** Span arithmetic. Kept apart from [[Tracer]] so it can be tested on
  * hand-built spans.
  */
object Trace {

  /** Total duration (ns) of the union of `intervals` clipped to [lo, hi). */
  def covered(lo: Long, hi: Long, intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var reach = lo
    intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => s < e }
      .sortBy(_._1)
      .foreach { case (s, e) =>
        if (e > reach) { total += e - math.max(s, reach); reach = e }
      }
    total
  }

  /** Self time (ns) of every span: its duration minus the part of it that its
    * direct children cover.
    */
  def selfNanos(spans: IndexedSeq[Span]): IndexedSeq[Long] = {
    val children = spans.indices.groupBy(i => spans(i).parent)
    spans.indices.map { i =>
      val s = spans(i)
      val kids = children.getOrElse(i, Nil).map(k => (spans(k).start, spans(k).end))
      s.nanos - covered(s.start, s.end, kids)
    }
  }

  /** Summed duration (s) of the spans of `layer`, optionally of one `op`. */
  def busySeconds(spans: Seq[Span], layer: String, op: String = null): Double =
    spans.iterator
      .filter(s => s.layer == layer && (op == null || s.op == op))
      .map(_.nanos).sum / 1e9

  /** Summed self time (s) of the spans of `layer`. */
  def selfSeconds(spans: IndexedSeq[Span], layer: String): Double = {
    val self = selfNanos(spans)
    spans.indices.iterator.filter(spans(_).layer == layer).map(self).sum / 1e9
  }

  /** `part / base`, or 0 when nothing was counted in the base. */
  def ratio(part: Double, base: Double): Double = if (base > 0) part / base else 0.0
}
