package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import org.apache.spark.{ListenerBusDrain, SparkContext, Success}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark counts of the jobs run under one job group. */
final class GroupCounts {
  var jobs, tasks, emptyTasks, failedTasks, taskMs, shuffleBytes = 0L
}

/** Attributes every job, and the tasks of its stages, to the job group that
  * was set on the driver thread when the job was submitted.
  *
  * A task counts as empty when it read no input or shuffle records and wrote
  * no shuffle or output records.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val byGroup = mutable.Map.empty[String, GroupCounts]
  private var callbackNs = 0L

  private def group(g: String): GroupCounts = byGroup.getOrElseUpdate(g, new GroupCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(GroupListener.Untagged)
    e.stageIds.foreach(stageGroup(_) = g)
    group(g).jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val c = group(stageGroup.getOrElse(e.stageId, GroupListener.Untagged))
    c.tasks += 1
    if (e.reason != Success) c.failedTasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.taskMs += m.executorRunTime
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      val read = m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
      val written = m.shuffleWriteMetrics.recordsWritten + m.outputMetrics.recordsWritten
      if (read == 0 && written == 0) c.emptyTasks += 1
    }
  }

  private def timed(body: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    body
    callbackNs += System.nanoTime() - t0
  }

  def counts(g: String): GroupCounts = synchronized(byGroup.getOrElse(g, new GroupCounts))

  /** Time spent in this listener's callbacks, on Spark's listener thread. */
  def callbackS: Double = synchronized(callbackNs / 1e9)
}

object GroupListener {
  val Untagged = "(untagged)"
}

/** One timed interval of the traced run. Times are seconds since the run's
  * tracer was created; `cpuS` is the CPU time of the calling thread.
  */
final case class Span(name: String, parent: String, startS: Double, endS: Double, cpuS: Double)

/** Records spans around calls into the program's layers.
  *
  * Each span sets its name as the Spark job group, so the listener can
  * attribute jobs and tasks to it; a nested span restores its parent's group
  * when it ends. Spans stay in memory until the run ends.
  */
final class Tracer(sc: SparkContext) {
  val listener = new GroupListener
  private val mx = ManagementFactory.getThreadMXBean
  private val origin = System.nanoTime()
  private var stack = List.empty[String]
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val rows = mutable.Map.empty[String, Long]
  private var bookkeepingNs = 0L

  def attach(): Unit = sc.addSparkListener(listener)

  private def now: Double = (System.nanoTime() - origin) / 1e9

  def span[A](name: String)(body: => A): A = {
    val b0 = System.nanoTime()
    val parent = stack.headOption.getOrElse("")
    stack = name :: stack
    sc.setJobGroup(name, name, interruptOnCancel = false)
    val c0 = mx.getCurrentThreadCpuTime
    val s = now
    bookkeepingNs += System.nanoTime() - b0
    try body
    finally {
      val eNs = System.nanoTime()
      val e = (eNs - origin) / 1e9
      val cpu = (mx.getCurrentThreadCpuTime - c0) / 1e9
      stack = stack.tail
      stack.headOption match {
        case Some(p) => sc.setJobGroup(p, p, interruptOnCancel = false)
        case None    => sc.clearJobGroup()
      }
      spans += Span(name, parent, s, e, cpu)
      bookkeepingNs += System.nanoTime() - eNs
    }
  }

  /** What tracing itself cost: span bookkeeping on the calling thread plus
    * the listener's callbacks on Spark's listener thread.
    */
  def overheadS: Double = bookkeepingNs / 1e9 + listener.callbackS

  /** Adds output rows to a span's `rows_out`. */
  def addRows(name: String, n: Long): Unit = rows(name) = rows.getOrElse(name, 0L) + n

  def allSpans: Seq[Span] = spans.toSeq

  def wallS(name: String): Double = spans.iterator.filter(_.name == name).map(s => s.endS - s.startS).sum
  def cpuS(name: String): Double = spans.iterator.filter(_.name == name).map(_.cpuS).sum
  def rowsOut(name: String): Long = rows.getOrElse(name, 0L)

  /** Delivers every pending listener event; call before reading counts. */
  def drain(): Unit = ListenerBusDrain(sc)
}
