package astibench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Counts every Spark job and task from registration until [[read]].
  *
  * Listener events arrive asynchronously, so [[read]] runs one marker job and
  * waits for its end event: the bus delivers events in order, so by then every
  * earlier job has been counted. The marker's own job and tasks are excluded.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val Marker = "astibench-flush"
  private var jobs = 0L
  private var tasks = 0L
  private var runMs = 0L
  private var resultBytes = 0L
  private var markerJob = -1
  private var markerStages = Set.empty[Int]
  private val flushed = new CountDownLatch(1)

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val desc = Option(e.properties).map(_.getProperty("spark.job.description")).orNull
    if (desc == Marker) { markerJob = e.jobId; markerStages = e.stageIds.toSet }
    else jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (!markerStages.contains(e.stageId)) {
      tasks += 1
      if (e.taskMetrics != null) {
        runMs += e.taskMetrics.executorRunTime
        resultBytes += e.taskMetrics.resultSize
      }
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) flushed.countDown()

  /** Flush the listener bus, detach, and return the counts. */
  def read(): SparkCounts = {
    sc.setJobDescription(Marker)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setJobDescription(null)
    require(flushed.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain")
    sc.removeSparkListener(this)
    SparkCounts(jobs, tasks, runMs / 1000.0, resultBytes)
  }
}
