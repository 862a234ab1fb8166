package repro.baseline

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** One point of the BSL configuration grid. */
final case class BslConfig(n: Int, weighting: String, measure: String, threshold: Double)

/** One evaluated configuration. */
final case class BslOutcome(cfg: BslConfig, prf: PRF)

/** The paper's custom baseline.
  *
  * BSL receives the same input as MinoanER — the block collections B_N and
  * B_T — and compares every pair of co-occurring descriptions, processing the
  * similarities with Unique Mapping Clustering. It disregards neighbor
  * evidence entirely but optimizes its F1 over:
  *   (i)   token n-grams, n ∈ {1, 2, 3};
  *   (ii)  TF vs TF-IDF weighting;
  *   (iii) Cosine, Jaccard, Generalized Jaccard and SiGMa similarity;
  *   (iv)  thresholds in [0, 1) with step 0.05.
  * Jaccard is weighting-independent, so the grid has 420 distinct configs.
  */
object BSL {

  val Thresholds: Seq[Double] = (0 until 20).map(_ * 0.05)

  /** Candidate pairs = co-occurrence in B_N ∪ B_T (purged token blocks),
    * from MinoanER's front end with its default parameters. Returns them
    * cached and materialized, with the front end's own caches released; the
    * caller releases the result.
    */
  def candidates(kb1: DataFrame, kb2: DataFrame): DataFrame = {
    val blocking = new Blocking(kb1, kb2, MinoanERParams())
    val cands = MinoanER.cache(blocking.candidatePairs)
    cands.count()
    blocking.unpersist()
    cands
  }

  /** Full sweep over every measure; returns (best outcome, all outcomes).
    *
    * One greedy UMC pass per (n, weighting, measure) is threshold-sweepable
    * (see UniqueMappingClustering), so the 420-config grid costs 24 passes.
    * The candidates come cached from [[candidates]], and each n's gram
    * frames are cached through the coalescing `MinoanER.cache`; all are
    * released before the sweep returns.
    */
  def sweep(spark: SparkSession,
            kb1: DataFrame, kb2: DataFrame, gt: DataFrame,
            ns: Seq[Int] = Seq(1, 2, 3),
            weightings: Seq[String] = Weighting.all,
            thresholds: Seq[Double] = Thresholds): (BslOutcome, Seq[BslOutcome]) = {

    val cands = candidates(kb1, kb2)
    val gtSet = gt.select("e1", "e2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

    val outcomes = ns.flatMap { n =>
      val g1 = MinoanER.cache(Ngrams.entityGrams(kb1, n))
      val g2 = MinoanER.cache(Ngrams.entityGrams(kb2, n))
      val out = for {
        scheme <- weightings
        (v1, v2) = Weighting.weighted(g1, g2, scheme)
        simRows = BslSimilarities.pairSims(v1, v2, cands).collect()
        (measure, i) <- BslSimilarities.all.zipWithIndex
        pairs = simRows.iterator.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2 + i))).toSeq
        accepted = UniqueMappingClustering.cluster(pairs)
        t <- thresholds
      } yield {
        val pred = accepted.collect { case (e1, e2, s) if s >= t => (e1, e2) }
        BslOutcome(BslConfig(n, scheme, measure, t), Evaluation.evaluateOnGtE1(pred, gtSet))
      }
      Seq(g1, g2).foreach(_.unpersist(blocking = true))
      out
    }

    cands.unpersist(blocking = true)
    val best = outcomes.maxBy(o => (o.prf.f1, -o.cfg.threshold))
    (best, outcomes)
  }
}
