package repro.util

/** Deterministic counter-based randomness (splitmix64 finalizer).
  *
  * Every stochastic object in this reproduction — realizations, mRR/RR sets,
  * root-size draws — is a pure function of a 64-bit seed and a stream index.
  * That makes sampling reproducible across driver-mode and RDD-mode execution
  * (tasks only need the seed, not a shared mutable RNG), which the tests rely
  * on when cross-checking distributed against local implementations.
  */
object Rng {

  /** splitmix64 finalizer: a high-quality 64-bit mix. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Combine a seed with a stream index into an independent-looking state.
    * The odd multiplier keeps the combination asymmetric in (seed, i).
    */
  def state(seed: Long, i: Long): Long = mix(mix(seed) * 0x9E3779B97F4A7C15L + mix(i))

  /** Uniform double in [0, 1) from `(seed, i)`. */
  def uniform(seed: Long, i: Long): Double =
    (state(seed, i) >>> 11).toDouble / (1L << 53).toDouble

  /** A cheap sequential PRNG seeded from `(seed, i)` for inner loops that
    * need many draws (reverse BFS edge coins). xorshift64* over a splitmix
    * state; never yields state 0.
    */
  final class Stream(seed: Long, i: Long) {
    private var s: Long = state(seed, i) | 1L
    def nextLong(): Long = {
      s ^= s >>> 12; s ^= s << 25; s ^= s >>> 27
      s * 0x2545F4914F6CDD1DL
    }
    def nextDouble(): Double = (nextLong() >>> 11).toDouble / (1L << 53).toDouble
    def nextInt(bound: Int): Int = {
      require(bound > 0, s"bound must be positive, got $bound")
      (nextDouble() * bound).toInt min (bound - 1)
    }
  }
}
