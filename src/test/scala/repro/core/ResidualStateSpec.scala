package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

class ResidualStateSpec extends AnyFunSuite {

  test("initial state: everything inactive, η_1 = η, n_1 = n") {
    val s = new ResidualState(GraphGen.line(5, 1.0), 3)
    assert(s.nActive == 0 && s.nI == 5 && s.etaI == 3 && !s.reached)
    assert(s.inactive.forall(identity))
    assert(s.inactiveNodes.toSeq == (0 until 5))
  }

  test("activate updates counts and mask") {
    val s = new ResidualState(GraphGen.line(5, 1.0), 3)
    assert(s.activate(Array(1, 3)) == 2)
    assert(s.nActive == 2 && s.nI == 3 && s.etaI == 1)
    assert(!s.inactive(1) && !s.inactive(3) && s.inactive(0))
    assert(s.inactiveNodes.toSeq == Seq(0, 2, 4))
  }

  test("activate is idempotent per node") {
    val s = new ResidualState(GraphGen.line(5, 1.0), 3)
    s.activate(Array(1))
    assert(s.activate(Array(1, 2)) == 1)
    assert(s.nActive == 2)
  }

  test("reached flips at η") {
    val s = new ResidualState(GraphGen.line(5, 1.0), 2)
    s.activate(Array(0))
    assert(!s.reached)
    s.activate(Array(4))
    assert(s.reached)
  }

  test("η validation") {
    intercept[IllegalArgumentException](new ResidualState(GraphGen.line(3, 1.0), 0))
    intercept[IllegalArgumentException](new ResidualState(GraphGen.line(3, 1.0), 4))
  }

  test("η_i ≤ n_i invariant holds under activation") {
    val s = new ResidualState(GraphGen.line(10, 1.0), 10)
    var step = 0
    while (!s.reached) {
      assert(s.etaI <= s.nI)
      s.activate(Array(step))
      step += 1
    }
  }
}
