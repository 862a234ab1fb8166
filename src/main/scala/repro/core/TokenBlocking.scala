package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Token Blocking (B_T) and Block Purging.
  *
  * Every distinct token of a literal value is a blocking key; a block is the
  * set of entities (from either KB) containing that token. Only blocks with
  * at least one entity from each KB yield cross-KB comparisons and are kept
  * (clean–clean ER).
  *
  * Block Purging removes the excessively large blocks that correspond to
  * highly frequent tokens (stop-words): following the meta-blocking line of
  * work, per-block comparison counts are histogrammed, and the largest levels
  * are dropped while their removal improves the block-assignments-per-
  * comparison density by more than a smooth factor.
  */
object TokenBlocking {

  /** Cross-KB token blocks: (token, n1, n2, comparisons = n1*n2). */
  def blocks(tokens1: DataFrame, tokens2: DataFrame): DataFrame = {
    val b1 = tokens1.groupBy("token").agg(count(lit(1)).as("n1"))
    val b2 = tokens2.groupBy("token").agg(count(lit(1)).as("n2"))
    b1.join(b2, "token").withColumn("comparisons", col("n1") * col("n2"))
  }

  /** Comparison-based Block Purging with the given smooth factor.
    *
    * Levels = distinct per-block comparison counts, ascending. For each level
    * i let A_i = cumulative block assignments (sum of block sizes) and C_i =
    * cumulative comparisons of blocks up to that level. Walking from the
    * largest level down, a level is purged while the density A/C of the
    * remaining prefix exceeds `smooth` times the density including it —
    * i.e. removing the level must pay for itself with a `smooth`-fold
    * density gain (`MinoanERParams.purgeSmooth`, 1.025 by default, the
    * smooth factor of the meta-blocking line of work). The walk stops at the
    * first level whose removal yields a marginal gain, so long-tailed
    * realistic histograms keep their small and mid blocks while stop-word
    * mega blocks are purged.
    */
  def purge(blockDf: DataFrame, smooth: Double): DataFrame = {
    val levels = blockDf.groupBy("comparisons")
      .agg(sum(col("n1") + col("n2")).as("assignments"), count(lit(1)).as("nblocks"))
      .collect()
      .sortBy(_.getLong(0))
    if (levels.isEmpty) return blockDf

    var cumA = 0.0
    var cumC = 0.0
    val cum = levels.map { r =>
      val comp = r.getLong(0)
      cumA += r.getLong(1).toDouble
      cumC += comp.toDouble * r.getLong(2)
      (comp, cumA, cumC)
    }
    var cut = cum.length - 1
    while (cut > 0 &&
           cum(cut - 1)._2 / cum(cut - 1)._3 > smooth * (cum(cut)._2 / cum(cut)._3)) {
      cut -= 1
    }
    val maxComparisons = cum(cut)._1
    blockDf.where(col("comparisons") <= maxComparisons)
  }

  /** All candidate pairs suggested by a block collection (token blocks). */
  def candidatePairs(tokens1: DataFrame, tokens2: DataFrame, keptBlocks: DataFrame): DataFrame =
    tokens1.select(col(KB.Eid).as("e1"), col("token"))
      .join(keptBlocks.select("token"), "token")
      .join(tokens2.select(col(KB.Eid).as("e2"), col("token")), "token")
      .select("e1", "e2")
      .distinct()

  /** Aggregate size of a block collection: (#blocks, total comparisons). */
  def stats(blockDf: DataFrame): (Long, Double) = {
    val r = blockDf.agg(count(lit(1)).as("nb"), coalesce(sum("comparisons"), lit(0L)).as("cc"))
      .collect()(0)
    (r.getLong(0), r.getLong(1).toDouble)
  }
}
