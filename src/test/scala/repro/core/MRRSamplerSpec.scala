package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.diffusion.{DiffusionModel, Spread}
import repro.graph.{CompactGraph, GraphGen}
import repro.util.Rng

class MRRSamplerSpec extends AnyFunSuite with SparkSpec {

  import DiffusionModel.{IC, LT}

  private def freshCtx(g: CompactGraph, eta: Int, model: DiffusionModel,
                       vanilla: Boolean = false, seed: Long = 1L): MRRSamplerCtx = {
    val state = new ResidualState(g, eta)
    new MRRSamplerCtx(spark, spark.sparkContext.broadcast(g), state.inactive,
                      state.inactiveNodes, state.etaI, model, vanilla, seed)
  }

  test("rootSize: exact division gives fixed k") {
    (0 until 100).foreach { i =>
      assert(MRRSampler.rootSize(10, 5, Rng.uniform(1L, i.toLong)) == 2)
    }
  }

  test("rootSize: fractional ratio rounds between floor and ceil") {
    val ks = (0 until 2000).map(i => MRRSampler.rootSize(10, 4, Rng.uniform(2L, i.toLong)))
    assert(ks.toSet == Set(2, 3))
    // E[k] = 2.5: frequency of 3 ≈ 0.5.
    val frac3 = ks.count(_ == 3) / 2000.0
    assert(math.abs(frac3 - 0.5) < 0.05, s"frac3=$frac3")
  }

  test("rootSize expectation is n/η for uneven ratios") {
    val ks = (0 until 20000).map(i => MRRSampler.rootSize(7, 3, Rng.uniform(3L, i.toLong)))
    assert(math.abs(ks.sum / 20000.0 - 7.0 / 3.0) < 0.03)
  }

  test("rootSize never exceeds n_i nor drops below 1") {
    for (n <- 1 to 6; eta <- 1 to n; i <- 0 until 50) {
      val k = MRRSampler.rootSize(n, eta, Rng.uniform(4L, i.toLong))
      assert(k >= 1 && k <= n, s"n=$n eta=$eta k=$k")
    }
  }

  test("sampleOne is deterministic in (seed, idx)") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val state = new ResidualState(g, 20)
    val a = MRRSampler.sampleOne(g, state.inactive, state.inactiveNodes, 20, IC, false, 5L, 7L)
    val b = MRRSampler.sampleOne(g, state.inactive, state.inactiveNodes, 20, IC, false, 5L, 7L)
    assert(a._1.toSeq == b._1.toSeq && a._2 == b._2)
  }

  test("sampleOne varies with idx") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val state = new ResidualState(g, 20)
    val sets = (0 until 20).map(i =>
      MRRSampler.sampleOne(g, state.inactive, state.inactiveNodes, 20, IC, false, 5L, i.toLong)._1.toSeq)
    assert(sets.distinct.size > 1)
  }

  test("mRR-set nodes are distinct and inactive") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val state = new ResidualState(g, 50)
    state.activate(Array(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
    (0 until 50).foreach { i =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, state.etaI, IC, false, 9L, i.toLong)
      assert(set.nonEmpty)
      assert(set.distinct.length == set.length)
      assert(set.forall(state.inactive(_)), s"idx $i leaked an active node")
    }
  }

  test("vanilla mode draws exactly one root on a no-edge graph") {
    val g = CompactGraph.fromEdges(10, Seq.empty)
    val state = new ResidualState(g, 5)
    (0 until 30).foreach { i =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, 5, IC, vanillaRoots = true, 3L, i.toLong)
      assert(set.length == 1)
    }
  }

  test("multi-root mode draws k roots on a no-edge graph") {
    val g = CompactGraph.fromEdges(12, Seq.empty)
    val state = new ResidualState(g, 3) // n/η = 4 exactly
    (0 until 30).foreach { i =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, 3, IC, vanillaRoots = false, 4L, i.toLong)
      assert(set.length == 4)
      assert(set.distinct.length == 4)
    }
  }

  test("large-k path (η_i = 1) returns all residual nodes as roots") {
    val g = CompactGraph.fromEdges(8, Seq.empty)
    val state = new ResidualState(g, 1)
    val (set, _) = MRRSampler.sampleOne(
      g, state.inactive, state.inactiveNodes, 1, IC, false, 6L, 0L)
    assert(set.sorted.toSeq == (0 until 8))
  }

  test("deterministic chain: mRR-set contains the full upstream prefix") {
    val g = GraphGen.line(6, 1.0)
    val state = new ResidualState(g, 6) // k = 1
    (0 until 20).foreach { i =>
      val (set, _) = MRRSampler.sampleOne(
        g, state.inactive, state.inactiveNodes, 6, IC, false, 7L, i.toLong)
      val root = set.max // on a p=1 chain, reverse reach of r is 0..r
      assert(set.sorted.toSeq == (0 to root))
    }
  }

  test("ctx generateLocal and generateSpark are byte-identical") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val local = freshCtx(g, 20, IC, seed = 11L).generateLocal(0, 64)
    val dist = freshCtx(g, 20, IC, seed = 11L).generateSpark(0, 64)
    assert(local.size == dist.size)
    local.zip(dist).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }

    // `generate` draws on the driver at every batch size, the probe's
    // threshold included, and launches no Spark job. Single-root sets, as
    // AdaptIM draws them, keep the batch cheap.
    val count = MRRSampler.SparkBatchThreshold
    val expected = freshCtx(g, 20, IC, vanilla = true, seed = 11L).generateLocal(0, count)
    val sc = spark.sparkContext
    val group = "MRRSamplerSpec.generate"
    sc.setJobGroup(group, "generate at SparkBatchThreshold")
    val drawn =
      try freshCtx(g, 20, IC, vanilla = true, seed = 11L).generate(0, count)
      finally sc.clearJobGroup()
    assert(sc.statusTracker.getJobIdsForGroup(group).isEmpty)
    assert(drawn.size == count)
    drawn.zip(expected).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
  }

  test("ctx accounting: totalSamples and totalWork accumulate") {
    val g = GraphGen.dataset(spark, "nethept", scale = 0.05)
    val ctx = freshCtx(g, 20, IC)
    ctx.generate(0, 10)
    val s1 = ctx.totalSamples
    ctx.generate(10, 5)
    assert(s1 == 10 && ctx.totalSamples == 15)
    assert(ctx.totalWork > 0)
  }

  test("empirical coverage matches exact E[Γ̃(v)] on fig2 (IC)") {
    val g = GraphGen.fig2
    val eta = 2
    val ctx = freshCtx(g, eta, IC, seed = 21L)
    val theta = 40000
    val sets = ctx.generateLocal(0, theta)
    val cov = Coverage.counts(g.n, sets)
    (0 until g.n).foreach { v =>
      val est = eta.toDouble * cov(v) / theta
      val exact = Spread.exactTildeGamma(g, Array(v), eta, IC)
      assert(math.abs(est - exact) < 0.04, s"v=$v est=$est exact=$exact")
    }
  }

  test("empirical coverage matches exact E[Γ̃(v)] on a weighted-cascade LT graph") {
    val g = CompactGraph.weightedCascade(4, Seq((0, 1), (1, 2), (0, 3), (2, 3)))
    val eta = 2
    val ctx = freshCtx(g, eta, LT, seed = 23L)
    val theta = 40000
    val sets = ctx.generateLocal(0, theta)
    val cov = Coverage.counts(g.n, sets)
    (0 until g.n).foreach { v =>
      val est = eta.toDouble * cov(v) / theta
      val exact = Spread.exactTildeGamma(g, Array(v), eta, LT)
      assert(math.abs(est - exact) < 0.04, s"v=$v est=$est exact=$exact")
    }
  }

  test("residual sampling (IC) matches exact estimator on the induced subgraph") {
    // Activate nodes {3,4,5} of a 7-node graph; residual = induced on {0,1,2,6}.
    val edges = Seq((0, 1, 0.6), (1, 2, 0.7), (2, 3, 0.5), (4, 5, 0.4), (6, 1, 0.8), (2, 6, 0.3))
    val g = CompactGraph.fromEdges(7, edges)
    val state = new ResidualState(g, 6)
    state.activate(Array(3, 4, 5))
    val etaI = state.etaI // 3
    // Induced residual graph, relabeled {0,1,2,6} -> {0,1,2,3}.
    val relabel = Map(0 -> 0, 1 -> 1, 2 -> 2, 6 -> 3)
    val resEdges = edges.collect {
      case (s, d, p) if relabel.contains(s) && relabel.contains(d) => (relabel(s), relabel(d), p)
    }
    val gRes = CompactGraph.fromEdges(4, resEdges)
    val ctx = new MRRSamplerCtx(spark, spark.sparkContext.broadcast(g), state.inactive,
                                state.inactiveNodes, etaI, IC, false, 31L)
    val theta = 40000
    val cov = Coverage.counts(g.n, ctx.generateLocal(0, theta))
    relabel.foreach { case (orig, res) =>
      val est = etaI.toDouble * cov(orig) / theta
      val exact = Spread.exactTildeGamma(gRes, Array(res), etaI, IC)
      assert(math.abs(est - exact) < 0.05, s"node $orig est=$est exact=$exact")
    }
  }

  test("residual sampling (LT) renormalizes over the conditional live-edge distribution") {
    // v2's in-edges: from v0 (active, p=0.5) and v1 (inactive, p=0.5).
    // Conditioned on v2 inactive, the chosen edge must be from v1 with
    // probability 0.5/(0.5+0) renormalized over {inactive}∪{none} = 1.0.
    val g = CompactGraph.fromEdges(3, Seq((0, 2, 0.5), (1, 2, 0.5)))
    val state = new ResidualState(g, 3)
    state.activate(Array(0))
    val ctx = new MRRSamplerCtx(spark, spark.sparkContext.broadcast(g), state.inactive,
                                state.inactiveNodes, state.etaI, LT, false, 37L)
    // With η_i = 2 and n_i = 2, k = 1: root uniform over {1, 2}. When the root
    // is 2, the set must always include 1 (conditional probability 1).
    val sets = ctx.generateLocal(0, 4000)
    val withTwo = sets.filter(_.contains(2))
    assert(withTwo.nonEmpty)
    withTwo.foreach(s => assert(s.contains(1), s.mkString(",")))
  }
}
