package repro

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.Try

/** Driver-side calls that each submit Spark jobs, run side by side so the
  * scheduler can overlap their small jobs on the executors.
  */
object Concurrently {

  /** Runs every task on its own thread and waits for all of them. Results
    * come back in input order; a task that throws gives its `Failure`, so a
    * caller can release what the others built. The threads inherit the
    * caller's Spark local properties (job group included).
    */
  def run[T](tasks: Seq[() => T]): Vector[Try[T]] = {
    val pool = Executors.newFixedThreadPool(math.max(1, tasks.size))
    try {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
      val futures = tasks.map(t => Future(t()))
      futures.map(f => Try(Await.result(f, Duration.Inf))).toVector
    } finally pool.shutdown()
  }
}
