package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer. Times are kept twice: nanoTime for the
  * duration and wall-clock milliseconds, the clock Spark stamps job starts
  * with, for crediting jobs to spans.
  */
final case class Span(id: Int, name: String, parent: Int, pass: Int,
                      startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  /** Half-open [startMs, endMs): a job submitted in the millisecond a span
    * ends belongs to whatever runs next.
    */
  def covers(ms: Long): Boolean = ms >= startMs && ms < endMs
}

/** Records spans in memory when enabled; when disabled a span only runs its
  * body. Spans are written out once, when the benchmark ends.
  */
final class Tracer(var enabled: Boolean) {
  private val done  = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]
  private var next  = 0
  var pass: Int     = -1

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id     = next
      val parent = open.headOption.getOrElse(-1)
      next += 1
      open = id :: open
      val ms0 = System.currentTimeMillis()
      val ns0 = System.nanoTime()
      try body
      finally {
        val ns1 = System.nanoTime()
        val ms1 = System.currentTimeMillis()
        open = open.tail
        done += Span(id, name, parent, pass, ns0, ns1, ms0, ms1)
      }
    }

  def spans: Vector[Span] = done.toVector
  def spansOf(pass: Int): Vector[Span] = done.iterator.filter(_.pass == pass).toVector
}

/** Job starts as Spark reports them: (job id, submission time in ms). */
final class JobLog extends SparkListener {
  private val starts = new ConcurrentLinkedQueue[(Int, Long)]()
  override def onJobStart(e: SparkListenerJobStart): Unit = starts.add((e.jobId, e.time))
  def all: Vector[(Int, Long)] = starts.asScala.toVector.sortBy(_._1)
  def within(fromMs: Long, toMs: Long): Vector[(Int, Long)] =
    all.filter { case (_, t) => t >= fromMs && t < toMs }
}

/** Per-pass layer totals computed from the spans of one traced pass. */
object Attribution {

  /** Credits each job to the deepest span whose interval holds its start
    * time. Spark posts job events asynchronously, so the span open when the
    * listener runs says nothing about which call submitted the job.
    */
  def creditJobs(spans: Seq[Span], jobs: Seq[(Int, Long)]): Map[Int, Int] = {
    val byId  = spans.map(s => s.id -> s).toMap
    def depth(s: Span): Int = if (s.parent < 0 || !byId.contains(s.parent)) 0 else 1 + depth(byId(s.parent))
    val depths = spans.map(s => s.id -> depth(s)).toMap
    jobs.flatMap { case (_, t) =>
      val holders = spans.filter(_.covers(t))
      if (holders.isEmpty) None else Some(holders.maxBy(s => depths(s.id)).id)
    }.groupBy(identity).view.mapValues(_.size).toMap
  }

  /** Self time of a span: its duration minus what its children cover. */
  def selfSeconds(s: Span, spans: Seq[Span]): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum

  /** Ids of `s` and every span below it. */
  def subtree(s: Span, spans: Seq[Span]): Set[Int] = {
    val kids = spans.filter(_.parent == s.id)
    kids.foldLeft(Set(s.id))((acc, k) => acc ++ subtree(k, spans))
  }
}
