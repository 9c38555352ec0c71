package repro.graph

import org.apache.spark.graphx.{Edge, Graph => XGraph}
import org.apache.spark.sql.SparkSession

/** Graph statistics backing Table 2: node/edge counts, average degree, and
  * the size of the largest weakly connected component (LWCC).
  *
  * Average degree is m/n from the CSR counts; the LWCC uses GraphX
  * `connectedComponents` on the undirected view, cross-checked against a
  * driver union-find.
  */
object GraphStats {

  final case class Stats(n: Int, m: Int, avgDeg: Double, lwcc: Long)

  /** Average total degree 2m/n for undirected-origin graphs stored as two
    * directed arcs, m/n + m/n = total arcs per node either way; Table 2's
    * "Avg. deg." column is total incident arcs per node, i.e. m_directed/n
    * counts each undirected edge twice already, matching the paper.
    */
  def avgDegree(g: CompactGraph): Double = g.m.toDouble / g.n

  /** Size of the largest weakly connected component via GraphX. */
  def lwccSize(spark: SparkSession, g: CompactGraph): Long = {
    val sc = spark.sparkContext
    val edgeRdd = sc.parallelize(
      (0 until g.m).map(e => Edge(g.srcs(e).toLong, g.dsts(e).toLong, 1)))
    val vertexRdd = sc.parallelize((0 until g.n).map(v => (v.toLong, 1)))
    val xg = XGraph(vertexRdd, edgeRdd)
    // connectedComponents treats edges as undirected links, i.e. WCC.
    val cc = xg.connectedComponents().vertices
    cc.map { case (_, comp) => (comp, 1L) }.reduceByKey(_ + _).map(_._2).max()
  }

  /** Driver-side WCC via union-find, used to cross-check GraphX in tests. */
  def lwccSizeLocal(g: CompactGraph): Long = {
    val parent = Array.tabulate(g.n)(identity)
    def find(x0: Int): Int = {
      var x = x0
      while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
      x
    }
    var e = 0
    while (e < g.m) {
      val a = find(g.srcs(e)); val b = find(g.dsts(e))
      if (a != b) parent(a) = b
      e += 1
    }
    val counts = new Array[Long](g.n)
    var v = 0
    var best = 0L
    while (v < g.n) {
      val r = find(v); counts(r) += 1
      if (counts(r) > best) best = counts(r)
      v += 1
    }
    best
  }

  def compute(spark: SparkSession, g: CompactGraph): Stats =
    Stats(g.n, g.m, avgDegree(g), lwccSize(spark, g))
}
