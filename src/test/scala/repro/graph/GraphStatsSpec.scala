package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class GraphStatsSpec extends AnyFunSuite with SparkSpec {

  test("LWCC of a connected line graph is n") {
    val g = GraphGen.line(10, 0.5)
    assert(GraphStats.lwccSizeLocal(g) == 10)
    assert(GraphStats.lwccSize(spark, g) == 10)
  }

  test("LWCC of two cliques is one clique") {
    val g = GraphGen.twoCliques(4, 1.0)
    assert(GraphStats.lwccSizeLocal(g) == 4)
    assert(GraphStats.lwccSize(spark, g) == 4)
  }

  test("LWCC treats direction as irrelevant (weak connectivity)") {
    // 0 -> 1 <- 2: weakly connected despite no directed path 0..2.
    val g = CompactGraph.fromEdges(3, Seq((0, 1, 1.0), (2, 1, 1.0)))
    assert(GraphStats.lwccSizeLocal(g) == 3)
    assert(GraphStats.lwccSize(spark, g) == 3)
  }

  test("LWCC with isolated nodes counts only the component") {
    val g = CompactGraph.fromEdges(6, Seq((0, 1, 1.0), (1, 2, 1.0)))
    assert(GraphStats.lwccSizeLocal(g) == 3)
    assert(GraphStats.lwccSize(spark, g) == 3)
  }

  test("GraphX and union-find LWCC agree on a generated graph") {
    val g = CompactGraph.fromDF(
      GraphGen.powerLawEdges(spark, 200, 500, 2.3, 13L, undirected = false), 200)
    assert(GraphStats.lwccSize(spark, g) == GraphStats.lwccSizeLocal(g))
  }

  test("generated datasets are dominated by one large WCC") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.2)
    val lwcc = GraphStats.lwccSizeLocal(g)
    // Power-law graphs at this density keep a large component, mirroring
    // the paper's "highly interconnected" observation (Table 2).
    assert(lwcc > g.n * 0.3, s"lwcc=$lwcc of n=${g.n}")
  }
}
