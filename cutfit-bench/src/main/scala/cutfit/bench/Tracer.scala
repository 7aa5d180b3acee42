package cutfit.bench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Spark task accounting for one benchmark span (all cells summed). */
final class SpanStats {
  var seconds = 0.0
  var jobs = 0L
  val stages = mutable.Set.empty[(Int, Int)]
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var waitMs = 0L
  var gcMs = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L
  var spillBytes = 0L
  var rddsLeft = 0L
  /** Max ÷ median executor run time, one entry per `numParts`-wide stage. */
  val stageSkews = mutable.ArrayBuffer.empty[Double]
}

/** One Spark job of a traced span, for the per-job readout. */
final case class JobRecord(span: String, cell: String, jobId: Int, var shuffleRecords: Long)

/** Attributes every finished task to the job group (= span name) of the job
  * that ran its stage. Events arrive on Spark's listener thread; readers call
  * [[Tracer.fence]] first so that every earlier event has been delivered.
  */
final class SpanListener extends SparkListener {
  val stats = mutable.LinkedHashMap.empty[String, SpanStats]
  val jobs = mutable.LinkedHashMap.empty[Int, JobRecord]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val jobParts = mutable.Map.empty[Int, Int]
  private val stageRunTimes = mutable.Map.empty[(Int, Int), mutable.ArrayBuffer[Long]]
  @volatile var fencesSeen = 0

  def span(name: String): SpanStats = synchronized(stats.getOrElseUpdate(name, new SpanStats))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties).filter(_.getProperty(Tracer.TracedProperty) != null)
    props.flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { group =>
      val s = span(group)
      s.jobs += 1
      jobs(e.jobId) = JobRecord(group,
        props.flatMap(p => Option(p.getProperty(Tracer.CellProperty))).getOrElse(""), e.jobId, 0L)
      props.flatMap(p => Option(p.getProperty(Tracer.PartsProperty))).foreach(p =>
        jobParts(e.jobId) = p.toInt)
      e.stageIds.foreach(s => stageJob.getOrElseUpdate(s, e.jobId))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobs.get(e.jobId).exists(_.span == Tracer.FenceSpan)) fencesSeen += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jobId <- stageJob.get(e.stageId); job <- jobs.get(jobId)) {
      val s = span(job.span)
      s.stages += ((e.stageId, e.stageAttemptId))
      s.tasks += 1
      s.waitMs += e.taskInfo.duration
      val m = e.taskMetrics
      if (m != null) {
        s.runMs += m.executorRunTime
        s.waitMs -= m.executorRunTime
        s.cpuNs += m.executorCpuTime
        s.gcMs += m.jvmGCTime
        s.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
        s.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        s.spillBytes += m.diskBytesSpilled
        job.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
        if (jobParts.get(jobId).isDefined)
          stageRunTimes.getOrElseUpdate((e.stageId, e.stageAttemptId),
            mutable.ArrayBuffer.empty) += m.executorRunTime
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    val key = (info.stageId, info.attemptNumber())
    for (times <- stageRunTimes.remove(key);
         jobId <- stageJob.get(info.stageId);
         parts <- jobParts.get(jobId) if info.numTasks == parts && times.nonEmpty) {
      val sorted = times.sorted
      val median = math.max(1L, sorted(sorted.size / 2))
      span(jobs(jobId).span).stageSkews += sorted.last.toDouble / median
    }
  }
}

/** Spans around the calls into each layer of the reproduction. Every span
  * sets its name as the Spark job group, so a running cell can be cancelled.
  * While [[traced]] is on, a span also records its wall time, tags its jobs
  * for the [[SpanListener]] and counts the RDDs it leaves persisted; with it
  * off a span does nothing else. A run with `--trace 0` never registers the
  * listener.
  */
final class Tracer(sc: SparkContext, registerListener: Boolean) {
  val listener = new SpanListener
  if (registerListener) sc.addSparkListener(listener)
  @volatile var traced = registerListener

  def stats(name: String): SpanStats = listener.span(name)

  def span[T](name: String, cell: String = "", parts: Int = 0)(body: => T): T = {
    val on = traced
    sc.setJobGroup(name, cell, interruptOnCancel = true)
    if (on) {
      sc.setLocalProperty(Tracer.TracedProperty, "1")
      sc.setLocalProperty(Tracer.CellProperty, cell)
      sc.setLocalProperty(Tracer.PartsProperty, if (parts > 0) parts.toString else null)
    }
    val before = if (on) sc.getPersistentRDDs.size else 0
    val start = System.nanoTime()
    try body
    finally {
      if (on) {
        val s = stats(name)
        s.seconds += (System.nanoTime() - start) / 1e9
        s.rddsLeft += math.max(0, sc.getPersistentRDDs.size - before)
        Seq(Tracer.TracedProperty, Tracer.CellProperty, Tracer.PartsProperty)
          .foreach(sc.setLocalProperty(_, null))
      }
      sc.clearJobGroup()
    }
  }

  /** Run one tiny traced job and wait until its end event arrives: listener
    * events are delivered in order, so every earlier task is then accounted.
    */
  def fence(): Unit = if (registerListener) {
    val seen = listener.fencesSeen
    traced = true
    try span(Tracer.FenceSpan)(sc.parallelize(Seq(1), 1).count())
    finally traced = false
    val deadline = System.nanoTime() + 30e9.toLong
    while (listener.fencesSeen == seen && System.nanoTime() < deadline) Thread.sleep(2)
    require(listener.fencesSeen > seen, "Spark listener events did not drain")
  }
}

object Tracer {
  val TracedProperty = "cutfit.traced"
  val CellProperty = "cutfit.cell"
  val PartsProperty = "cutfit.parts"
  val FenceSpan = "trace.fence"
}
