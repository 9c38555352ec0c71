package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.{DiffusionModel, Realization, Spread}
import repro.graph.GraphGen

class AteucSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}

  test("deterministic star: the center alone satisfies any η") {
    val g = GraphGen.star(50, 1.0)
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), eta = 25, IC, 1L)
    assert(res.seeds.toSeq == Seq(0))
    assert(res.iterations <= Ateuc.MaxIterations)
  }

  test("deterministic two-clique: η well below the clique size needs one seed") {
    // η far enough below E[I(v)] = 8 that the lower-confidence bound
    // certifies a single seed at the initial sample size.
    val g = GraphGen.twoCliques(8, 1.0)
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), 4, IC, 2L)
    assert(res.numSeeds == 1)
  }

  test("deterministic two-clique: η above one clique needs one seed per clique") {
    // η = 14 > 8 forces both cliques; the certified bound reaches 14 < 16
    // after a few doublings.
    val g = GraphGen.twoCliques(8, 1.0)
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), 14, IC, 3L)
    assert(res.numSeeds == 2)
    assert(res.seeds.map(_ / 8).toSet == Set(0, 1))
  }

  test("selected set's expected spread meets the threshold (MC check)") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.1)
    val eta = g.n / 10
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), eta, IC, 4L)
    val mc = Spread.mcSpreadLocal(g, res.seeds, IC, 3000, 99L)
    // ATEUC targets E[I(S)] ≥ η via a sampled estimate; allow estimator noise.
    assert(mc >= eta * 0.8, s"mc=$mc eta=$eta")
  }

  test("estimate reported is consistent with the threshold") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.1)
    val eta = g.n / 10
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), eta, IC, 5L)
    assert(res.estSpread >= eta * 0.9)
  }

  test("selection is non-adaptive: independent of any realization, deterministic in seed") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val bg = spark.sparkContext.broadcast(g)
    val a = Ateuc.select(spark, bg, 20, IC, 6L)
    val b = Ateuc.select(spark, bg, 20, IC, 6L)
    assert(a.seeds.toSeq == b.seeds.toSeq)
  }

  test("larger η needs at least as many seeds") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.1)
    val bg = spark.sparkContext.broadcast(g)
    val small = Ateuc.select(spark, bg, g.n / 20, IC, 7L)
    val large = Ateuc.select(spark, bg, g.n / 5, IC, 7L)
    assert(large.numSeeds >= small.numSeeds)
  }

  test("works under the LT model") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val eta = 20
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), eta, LT, 8L)
    assert(res.numSeeds >= 1)
    val mc = Spread.mcSpreadLocal(g, res.seeds, LT, 3000, 100L)
    assert(mc >= eta * 0.8, s"mc=$mc")
  }

  test("non-adaptive selection can miss η on individual realizations (the paper's N/A effect)") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.2)
    val eta = g.n / 10
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), eta, IC, 9L)
    val spreads = (0 until 40).map(r => new Realization(g, IC, 500L + r).spread(res.seeds))
    // The per-realization spread straddles its mean: not every realization
    // can be guaranteed, and the spread must genuinely vary.
    assert(spreads.distinct.size > 1)
    assert(spreads.min < spreads.max)
  }

  test("samples and work counters are populated") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val res = Ateuc.select(spark, spark.sparkContext.broadcast(g), 20, IC, 10L)
    assert(res.samples >= Ateuc.InitialTheta && res.work > 0)
  }
}
