package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Coverage bookkeeping over a collection of (m)RR-sets: Λ_R(v) is the number
  * of sets containing v (§3.4). Counting runs on the driver, inside the
  * selection loop; the DataFrame view of the sets feeds the oracle checks.
  */
object Coverage {

  /** Λ_R(v) for all v as a dense array. */
  def counts(n: Int, sets: Iterable[Array[Int]]): Array[Int] = {
    val c = new Array[Int](n)
    sets.foreach(set => set.foreach(v => c(v) += 1))
    c
  }

  /** Eligible node with maximum coverage (ties → smallest id) and its count.
    * Pass null to consider every node.
    */
  def topNode(counts: Array[Int], eligible: Array[Boolean] = null): (Int, Int) = {
    var best = -1
    var v = 0
    while (v < counts.length) {
      if ((eligible == null || eligible(v)) && (best < 0 || counts(v) > counts(best)))
        best = v
      v += 1
    }
    require(best >= 0, "no eligible node")
    (best, counts(best))
  }

  /** Exploded (setId, node) relation — the SQL view of the set collection,
    * consumed by DuckDB-oracle tests.
    */
  def setsDF(spark: SparkSession, sets: Seq[Array[Int]]): DataFrame = {
    import spark.implicits._
    sets.zipWithIndex
      .flatMap { case (set, id) => set.map(v => (id, v)) }
      .toDF("setId", "node")
  }

  /** Exact lazy greedy maximum coverage (CELF-style): yields picks in order,
    * each with its marginal gain and the cumulative number of covered sets.
    * Stops at `maxPicks` or when no node adds coverage. Shared by TRIM-B's
    * `Greedy(R)` (Algorithm 3, Line 8) and ATEUC's candidate construction.
    */
  def greedySequence(n: Int, sets: collection.IndexedSeq[Array[Int]],
                     maxPicks: Int): Seq[(Int, Int, Int)] = {
    val gains = counts(n, sets)
    // Inverted index node -> set ids, built once.
    val invOff = new Array[Int](n + 1)
    sets.foreach(_.foreach(v => invOff(v + 1) += 1))
    var v = 0
    while (v < n) { invOff(v + 1) += invOff(v); v += 1 }
    val inv = new Array[Int](sets.iterator.map(_.length).sum)
    val cursor = java.util.Arrays.copyOf(invOff, n)
    var i = 0
    while (i < sets.length) {
      sets(i).foreach { u => inv(cursor(u)) = i; cursor(u) += 1 }
      i += 1
    }

    val covered = new Array[Boolean](sets.length)
    val picked = new Array[Boolean](n)
    // Order by gain desc, then node id asc — deterministic tie-breaking that
    // matches a naive argmax greedy (tested for equivalence).
    val pq = new java.util.PriorityQueue[(Int, Int)](
      math.max(1, n), Ordering.by[(Int, Int), (Int, Int)](t => (-t._1, t._2)))
    (0 until n).foreach(u => if (gains(u) > 0) pq.add((gains(u), u)))
    val out = Seq.newBuilder[(Int, Int, Int)]
    var coveredCount = 0
    var picks = 0
    while (picks < maxPicks && !pq.isEmpty) {
      val (gain, u) = pq.poll()
      if (!picked(u)) {
        if (gain != gains(u)) pq.add((gains(u), u)) // stale entry: re-queue
        else if (gain == 0) { /* nothing left to cover */ picks = maxPicks }
        else {
          picked(u) = true
          var j = invOff(u)
          while (j < invOff(u + 1)) {
            val s = inv(j)
            if (!covered(s)) {
              covered(s) = true
              coveredCount += 1
              sets(s).foreach(w => gains(w) -= 1)
            }
            j += 1
          }
          picks += 1
          out += ((u, gain, coveredCount))
        }
      }
    }
    out.result()
  }

  /** Greedy maximum coverage of up to b nodes: (seeds, #sets covered).
    * Greedy's single pick is the argmax, so b = 1 skips the inverted index
    * and the lazy queue that only later picks need.
    */
  def greedyCover(n: Int, sets: collection.IndexedSeq[Array[Int]], b: Int): (Array[Int], Int) =
    if (b == 1) {
      val (v, c) = topNode(counts(n, sets))
      if (c > 0) (Array(v), c) else (Array.empty, 0)
    } else {
      val seq = greedySequence(n, sets, b)
      (seq.map(_._1).toArray, if (seq.isEmpty) 0 else seq.last._3)
    }
}
