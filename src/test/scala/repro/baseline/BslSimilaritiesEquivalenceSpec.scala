package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.kb.{Datasets, KBGen}

/** The one-plan [[BslSimilarities.pairSims]] equals [[ReferenceBslSimilarities]]:
  * the same candidate pairs, and the same four values. Sums of integral
  * weights (TF) are exact in any order, so TF values must be bit-identical;
  * real weights (TF-IDF) may differ in the order of summation only.
  *
  * The random cases are packed into one table, as in the heuristics
  * equivalence spec: case i's entity ids are shifted by i * Stride and its
  * grams are prefixed with i, so the cases share no entity and no gram, and
  * the cap counts each gram within its case.
  */
class BslSimilaritiesEquivalenceSpec extends SparkSpec {
  import spark.implicits._

  private val Stride = 100L
  private val TfIdfTolerance = 1e-12

  private type Sims = Map[(Long, Long), Seq[Double]]

  private def sims(df: DataFrame): Sims =
    df.collect().map(r => (r.getLong(0), r.getLong(1)) -> (2 to 5).map(r.getDouble)).toMap

  /** Bit-identical when `tolerance` is 0 (NaN equals NaN), else within it. */
  private def same(a: Double, b: Double, tolerance: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b) ||
      (tolerance > 0 && math.abs(a - b) <= tolerance)

  private def assertSame(got: Sims, reference: Sims, tolerance: Double, what: String): Unit = {
    assert(reference.nonEmpty, s"$what: the reference scores no pair, so the check is vacuous")
    assert(got.keySet == reference.keySet,
      s"$what: only one-plan ${got.keySet -- reference.keySet}, only reference ${reference.keySet -- got.keySet}")
    val off = reference.collect {
      case (p, r) if !got(p).zip(r).forall { case (g, x) => same(g, x, tolerance) } => p -> (got(p), r)
    }
    assert(off.isEmpty, s"$what: ${off.size} pairs differ, e.g. ${off.take(3).mkString("; ")}")
  }

  /** 300 random cases of up to 4 entities a side over 6 grams, each entity
    * holding a random subset of the grams (possibly none), and a random
    * subset of the case's pairs as candidates. Weights are integral, or real.
    */
  private final class Cases(integral: Boolean) {
    private val rnd = new scala.util.Random(20181)
    private def weight(): Double =
      if (integral) (1 + rnd.nextInt(4)).toDouble
      else 0.01 + rnd.nextDouble() * 3
    private def vector(i: Int): Seq[(Long, String, Double)] =
      for (e <- 0L until 4L; g <- 0 until 6 if rnd.nextInt(3) == 0)
        yield (i * Stride + e, s"c${i}g$g", weight())
    private val cases = (0 until 300).map { i =>
      val pairs = for (a <- 0L until 4L; b <- 0L until 4L if rnd.nextInt(3) > 0)
        yield (i * Stride + a, i * Stride + b)
      (vector(i), vector(i), pairs)
    }
    val v1: DataFrame = cases.flatMap(_._1).toDF("eid", "gram", "w")
    val v2: DataFrame = cases.flatMap(_._2).toDF("eid", "gram", "w")
    val candidates: DataFrame = cases.flatMap(_._3).toDF("e1", "e2")
  }

  for ((integral, tolerance) <- Seq(true -> 0.0, false -> TfIdfTolerance))
    test(s"random ${if (integral) "integral" else "real"} weights: equal to the reference for every cap") {
      val c = new Cases(integral)
      val references = Seq(1L, 2L, 1000L).map { cap =>
        val reference = sims(ReferenceBslSimilarities.pairSims(c.v1, c.v2, c.candidates, cap))
        assertSame(sims(BslSimilarities.pairSims(c.v1, c.v2, c.candidates, cap)), reference,
                   tolerance, s"dfCap=$cap")
        reference
      }
      assert(references.distinct.size == references.size, "the cap drops no gram, so it goes unchecked")
    }

  // 4 shuffle partitions, not 64: the 24 reference plans are mostly per-task overhead.
  for (cfg <- Seq(Datasets.restaurant, Datasets.rexaDblp))
    test(s"${cfg.name} @ test scale: equal to the reference for n in 1-3, TF and TF-IDF") {
      withConf("spark.sql.shuffle.partitions", Some("4")) {
        val pair = KBGen.generate(spark, Datasets.testScale(cfg))
        val cands = BSL.candidates(pair.kb1, pair.kb2)
        for (n <- Seq(1, 2, 3)) {
          val g1 = Ngrams.entityGrams(pair.kb1, n).cache()
          val g2 = Ngrams.entityGrams(pair.kb2, n).cache()
          for (scheme <- Weighting.all) {
            val (v1, v2) = Weighting.weighted(g1, g2, scheme)
            assertSame(sims(BslSimilarities.pairSims(v1, v2, cands)),
                       sims(ReferenceBslSimilarities.pairSims(v1, v2, cands)),
                       if (scheme == Weighting.TF) 0.0 else TfIdfTolerance, s"${cfg.name}, n=$n, $scheme")
          }
          Seq(g1, g2).foreach(_.unpersist(blocking = true))
        }
        cands.unpersist(blocking = true)
      }
    }
}
