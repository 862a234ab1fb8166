package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ParallelSpec extends AnyFunSuite {

  test("both branches' results come back, the second from a daemon thread of its own") {
    val caller = Thread.currentThread
    val (a, b) = Parallel.both(Thread.currentThread, Thread.currentThread)
    assert(a eq caller)
    assert(!(b eq caller) && b.isDaemon)
    b.join(10000)
    assert(!b.isAlive, "the forked thread outlives the call")
  }

  test("a failing branch is rethrown after the other one has ended") {
    @volatile var ended = false
    intercept[IllegalStateException] {
      Parallel.both(throw new IllegalStateException("a"), { Thread.sleep(200); ended = true })
    }
    assert(ended)
    val e = intercept[IllegalArgumentException](Parallel.both(1, throw new IllegalArgumentException("b")))
    assert(e.getMessage == "b")
  }
}
