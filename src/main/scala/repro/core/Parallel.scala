package repro.core

import java.util.concurrent.{ExecutionException, FutureTask}
import scala.util.Try

/** Runs two independent branches of Spark work at the same time.
  *
  * The second branch runs on a new daemon thread, started for this call and
  * ended with it; the first runs on the caller's thread. Spark keeps a
  * thread's local properties (job group, job description, scheduler pool) in
  * an inheritable thread-local that a new thread copies from the thread that
  * starts it, so the forked branch's jobs carry the caller's properties as
  * they are at the call. A pooled thread would keep those of the call that
  * created it. A daemon thread does not keep the JVM alive.
  */
private[repro] object Parallel {

  /** Both results, once both branches have ended. If a branch throws, the
    * call still waits for the other one to end, then rethrows; `a`'s failure
    * wins if both fail.
    */
  def both[A, B](a: => A, b: => B): (A, B) = {
    val task = new FutureTask[B](() => b)
    val thread = new Thread(task, "repro-branch")
    thread.setDaemon(true)
    thread.start()
    val ra =
      try a
      catch { case e: Throwable => Try(task.get()); throw e }
    val rb =
      try task.get()
      catch { case e: ExecutionException => throw e.getCause }
    (ra, rb)
  }
}
