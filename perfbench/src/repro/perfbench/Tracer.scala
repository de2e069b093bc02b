package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.{BenchListenerBus, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}

/** A finished Spark job as the listener saw it. `callSite` is the call
  * site of the SQL action that launched it (such as `isEmpty at CLP.scala:140`),
  * or its final stage's name for jobs outside SQL. `rowsRead` sums the rows
  * produced by the job's leaf scans (cached-table, local and file scans).
  */
final case class JobSpan(
    id: Int,
    group: Option[String],
    callSite: String,
    startMs: Long,
    endMs: Long,
    tasks: Long,
    taskMs: Long,
    rowsRead: Long,
)

/** Records every Spark job with its job group, call site, task count, task
  * run time and scanned rows. Callbacks run on Spark's listener-bus thread;
  * `take()` first waits for the bus to deliver every queued event.
  */
final class JobRecorder(sc: SparkContext) extends SparkListener {
  private final class Open(val group: Option[String], val callSite: String, val startMs: Long, val stages: Seq[Int]) {
    var tasks = 0L
    var taskMs = 0L
    var rows = 0L
  }
  private val open = mutable.Map.empty[Int, Open]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val scanAccs = mutable.Set.empty[Long]
  private val sqlCallSite = mutable.Map.empty[Long, String]
  private val done = ArrayBuffer.empty[JobSpan]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val group = props.flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    // Adaptive execution submits a query's jobs from its own threads, so the
    // stage name shows that thread's frame; the SQL execution keeps the action.
    val site = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id")))
      .flatMap(id => sqlCallSite.get(id.toLong))
      .getOrElse(e.stageInfos.maxByOption(_.stageId).map(_.name).getOrElse(""))
    open(e.jobId) = new Open(group, site, e.time, e.stageIds)
    e.stageIds.foreach(stageJob(_) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jid <- stageJob.get(e.stageId); j <- open.get(jid)) {
      j.tasks += 1
      if (e.taskMetrics != null) j.taskMs += e.taskMetrics.executorRunTime
      e.taskInfo.accumulables.foreach { a =>
        if (scanAccs(a.id)) a.update.foreach {
          case n: java.lang.Long => j.rows += n
          case _                 =>
        }
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { j =>
      j.stages.foreach(stageJob.remove)
      done += JobSpan(e.jobId, j.group, j.callSite, j.startMs, e.time, j.tasks, j.taskMs, j.rows)
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart =>
      synchronized(sqlCallSite(s.executionId) = s.description)
      addScans(s.sparkPlanInfo)
    case u: SparkListenerSQLAdaptiveExecutionUpdate => addScans(u.sparkPlanInfo)
    case _                                          =>
  }

  private def addScans(p: SparkPlanInfo): Unit = synchronized {
    val n = p.nodeName
    if (n == "InMemoryTableScan" || n == "LocalTableScan" || n.startsWith("Scan "))
      p.metrics.filter(_.name == "number of output rows").foreach(scanAccs += _.accumulatorId)
    p.children.foreach(addScans)
  }

  /** Jobs finished since the last call. */
  def take(): Seq[JobSpan] = {
    BenchListenerBus.drain(sc)
    synchronized { val r = done.toList; done.clear(); r }
  }
}

/** One timed span: `parent` is the id of the span that caused it (0 = none). */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double) {
  def ms: Double = endMs - startMs
}

/** A traced region: its root span, the layer spans opened under it and the
  * Spark jobs, each attributed to the layer whose job group it carried.
  */
final case class RegionTrace(root: Span, layers: Seq[Span], jobs: Map[Int, Seq[JobSpan]], unattributed: Seq[JobSpan]) {
  def layer(name: String): Seq[Span] = layers.filter(_.name == name)
  def jobsOf(name: String): Seq[JobSpan] = layer(name).flatMap(s => jobs.getOrElse(s.id, Nil))
}

/** Span tree run → layer → Spark job, kept in memory until the run ends.
  *
  * A layer span sets the Spark job group `span:<id>` on the calling thread
  * while it is open. Spark copies the group into threads created under it
  * (such as the pool `repro.util.Par` creates per call) and into SQL's
  * broadcast threads, so every job started inside the layer carries it.
  * The listener is registered only while a region is traced.
  */
final class Tracer(sc: SparkContext) {
  private val recorder = new JobRecorder(sc)
  private val epochMs = System.currentTimeMillis()
  private val epochNs = System.nanoTime()
  private var nextId = 0
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  val jobSpans: ArrayBuffer[(Int, JobSpan)] = ArrayBuffer.empty

  /** Wall clock in epoch milliseconds with sub-millisecond resolution. */
  def nowMs: Double = epochMs + (System.nanoTime() - epochNs) / 1e6

  private def newId(): Int = { nextId += 1; nextId }

  def region[A](name: String)(body: Layers => A): (A, RegionTrace) = {
    sc.addSparkListener(recorder)
    val rootId = newId()
    val start = nowMs
    val layers = ArrayBuffer.empty[Span]
    val layerFn = new Layers {
      def apply[B](layer: String)(f: => B): B = {
        val id = newId()
        val s = nowMs
        // No description: SQL then names each execution by its call site.
        sc.setJobGroup(s"span:$id", null, interruptOnCancel = false)
        try f
        finally {
          sc.clearJobGroup()
          layers += Span(id, rootId, layer, s, nowMs)
        }
      }
    }
    val out =
      try body(layerFn)
      catch { case t: Throwable => sc.removeSparkListener(recorder); throw t }
    val root = Span(rootId, 0, name, start, nowMs)
    val jobs =
      try recorder.take()
      finally sc.removeSparkListener(recorder)
    val ids = layers.map(_.id).toSet
    val spanOf = (j: JobSpan) => j.group.collect { case g if g.startsWith("span:") => g.drop(5).toInt }.filter(ids)
    val (mine, other) = jobs.partition(j => spanOf(j).isDefined)
    spans += root
    spans ++= layers
    mine.foreach(j => jobSpans += spanOf(j).get -> j)
    other.foreach(j => jobSpans += 0 -> j)
    (out, RegionTrace(root, layers.toSeq, mine.groupBy(spanOf(_).get), other))
  }

  /** Spans and job spans as JSON-ready rows, for the run's output document. */
  def dump: Seq[Map[String, Any]] =
    spans.toSeq.map(s => Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs)) ++
      jobSpans.toSeq.map { case (parent, j) =>
        Map("job" -> j.id, "parent" -> parent, "name" -> j.callSite, "start_ms" -> j.startMs,
          "end_ms" -> j.endMs, "tasks" -> j.tasks, "task_ms" -> j.taskMs, "rows_read" -> j.rowsRead)
      }
}

object Tracer {

  /** Length of the union of `[start, end)` intervals clipped to `[lo, hi)`. */
  def unionMs(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }.filter(x => x._2 > x._1).sortBy(_._1)
    var total = 0.0
    var curS = Double.NaN
    var curE = Double.NaN
    for ((s, e) <- clipped) {
      if (curE.isNaN || s > curE) {
        if (!curE.isNaN) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curE.isNaN) total += curE - curS
    total
  }
}
