package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Parameters of the MinoanER matching process (paper defaults). */
final case class MinoanERParams(
    K: Int = 15,          // candidate matches per entity from values and neighbors
    N: Int = 3,           // most important relations per KB
    k: Int = 2,           // most distinctive attributes per KB serving as names
    theta: Double = 0.6,  // trade-off value-based vs neighbor-based candidates
    purgeSmooth: Double = 1.025)

/** Everything the pipeline produces. `resolve` returns with `matches` and
  * `valueSims` cached; the other frames are lazy and recomputed when read.
  */
final case class MinoanERResult(
    matches: DataFrame,          // (e1, e2, heuristic)
    blocking: Blocking,          // statistics, names, B_N, tokens, B_T before and after purging
    valueSims: DataFrame,        // (e1, e2, vsim)
    neighborSims: DataFrame) {   // (e1, e2, nsim)

  /** Releases the two frames `resolve` left cached and waits until they are
    * gone. They stay usable, but are recomputed if read again.
    */
  def unpersist(): Unit = Seq(valueSims, matches).foreach(_.unpersist(blocking = true))
}

/** The MinoanER non-iterative matching process.
  *
  * M(ei, ej) = (H1 ∨ H2 ∨ H3) ∧ H4 over the schema-agnostic block
  * collections B_N (whole-name blocks) and B_T (purged token blocks); all
  * similarity evidence — values, names, neighbors — is derived from block
  * statistics alone, with no schema alignment and no iteration.
  */
object MinoanER {

  private[core] val CoalesceCacheConf = "spark.sql.optimizer.canChangeCachedPlanOutputPartitioning"
  private val coalesceLock = new Object

  /** Runs `body` with [[CoalesceCacheConf]] set to true, then restores the
    * caller's value, or unsets it again if it was unset. The conf is
    * session-wide, so calls hold one lock: two threads that interleaved the
    * set and the restore could leave the conf unset under the other's body.
    */
  private[core] def coalescingCaches[A](spark: SparkSession)(body: => A): A = coalesceLock.synchronized {
    val before = spark.conf.getAll.get(CoalesceCacheConf)
    spark.conf.set(CoalesceCacheConf, "true")
    try body
    finally before match {
      case Some(v) => spark.conf.set(CoalesceCacheConf, v)
      case None    => spark.conf.unset(CoalesceCacheConf)
    }
  }

  /** Caches `df` so that adaptive execution may coalesce it to the few
    * partitions its data needs. Without the conf, a cached frame keeps all
    * `spark.sql.shuffle.partitions` partitions, and every scan of it launches
    * that many tasks. `cache()` plans the frame with the conf it sees, so the
    * setting does not leak into later caches. `Blocking`, `resolve` and the
    * BSL baseline cache through it.
    */
  private[repro] def cache(df: DataFrame): DataFrame = coalescingCaches(df.sparkSession)(df.cache())

  /** A view of the cached `df` whose plan is one `LogicalRDD` leaf over the
    * cache's rows. A plan that reads `df` itself carries `df`'s whole plan,
    * and the caches nested in it, each printed twice by adaptive execution;
    * Spark prints that plan for every execution event. The leaf's RDD keeps
    * its lineage, so it is recomputed if `df` is released and read again.
    */
  private def leaf(df: DataFrame): DataFrame = df.sparkSession.createDataFrame(df.rdd, df.schema)

  def resolve(spark: SparkSession,
              kb1: DataFrame,
              kb2: DataFrame,
              params: MinoanERParams = MinoanERParams()): MinoanERResult = {

    val blocking = new Blocking(kb1, kb2, params)

    // valueSim over the purged B_T, which is read once, by the token weights.
    // The tokens come from the front end's caches.
    val weights = ValueSim.tokenWeights(blocking.tokenBlocks)
    val vs      = cache(ValueSim.pairSims(blocking.tokens1, blocking.tokens2, weights))

    // B_N and H1.
    val m1 = cache(NameBlocking.h1Matches(blocking.names1, blocking.names2)
      .withColumn("heuristic", lit("H1")))

    // Neighbor similarity over the top-N relations, read once, by the graph.
    val nbrs1 = NeighborSim.topNeighbors(kb1, blocking.topRels1)
    val nbrs2 = NeighborSim.topNeighbors(kb2, blocking.topRels2)
    val ns    = NeighborSim.pairSims(nbrs1, nbrs2, vs)

    // The candidate graph H2-H4 read, built while H1 is: neither reads the other.
    val graph = cache(Heuristics.graph(vs, ns, params.K))
    Parallel.both(graph.count(), m1.count())

    // From here on, the cached graph, m1 and m2 are read through leaves.
    val graphLeaf = leaf(graph)
    val m1Leaf    = leaf(m1)

    // H2 on entities unmatched by H1. H2's and H3's rows carry the graph's
    // H4 flag, so only H1's need the semi-join.
    val m2 = cache(Heuristics.h2(graph, m1Leaf.select("e1"), m1Leaf.select("e2"), "reciprocal")
      .withColumn("heuristic", lit("H2")))
    val m2Leaf = leaf(m2)

    // H3 on entities unmatched by H1 and H2.
    val matched1 = m1Leaf.select("e1").union(m2Leaf.select("e1"))
    val matched2 = m1Leaf.select("e2").union(m2Leaf.select("e2"))
    val m3 = Heuristics.h3OnGraph(graphLeaf, matched1, matched2, params.K, params.theta, "reciprocal")
      .withColumn("heuristic", lit("H3"))

    // H4 verification of the disjunction.
    val matches = cache(Heuristics.h4OnGraph(m1Leaf, graphLeaf)
      .unionByName(m2Leaf.unionByName(m3).where(col("reciprocal")).drop("reciprocal")))

    // A cache whose buffers are loaded no longer reads the frames it was
    // computed from, so those can be released once `matches` is. A leaf's
    // RDD still reaches them through its lineage, so `matches` can be
    // recomputed after they are gone. `valueSims` stays cached for the
    // callers that read it.
    matches.count()
    Seq(graph, m1, m2).foreach(_.unpersist(blocking = true))
    blocking.unpersist()

    MinoanERResult(matches, blocking, vs, ns)
  }
}
