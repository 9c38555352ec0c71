package repro.util

import org.scalacheck.{Prop, Properties}

/** ScalaCheck property suite (run by sbt's native ScalaCheck framework). */
object RngProps extends Properties("Rng") {

  property("uniform in [0,1)") = Prop.forAll { (seed: Long, i: Long) =>
    val u = Rng.uniform(seed, i)
    u >= 0.0 && u < 1.0
  }

  property("uniform deterministic") = Prop.forAll { (seed: Long, i: Long) =>
    Rng.uniform(seed, i) == Rng.uniform(seed, i)
  }

  property("stream reproducible") = Prop.forAll { (seed: Long, i: Long) =>
    val a = new Rng.Stream(seed, i)
    val b = new Rng.Stream(seed, i)
    (0 until 20).forall(_ => a.nextLong() == b.nextLong())
  }

  property("mix is injective-ish on small ranges") = Prop.forAll { (x: Int) =>
    Rng.mix(x.toLong) != Rng.mix(x.toLong + 1)
  }
}
