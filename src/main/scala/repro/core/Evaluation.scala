package repro.core

import org.apache.spark.sql.DataFrame

/** Precision / recall / F1 over a (e1, e2) ground truth. */
final case class PRF(tp: Long, predicted: Long, actual: Long) {
  def precision: Double = if (predicted == 0) 0.0 else tp.toDouble / predicted
  def recall: Double    = if (actual == 0) 0.0 else tp.toDouble / actual
  def f1: Double = {
    val p = precision; val r = recall
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }
  override def toString: String =
    f"P=${precision * 100}%.2f R=${recall * 100}%.2f F1=${f1 * 100}%.2f (tp=$tp, pred=$predicted, gt=$actual)"
}

object Evaluation {

  /** Paper-style evaluation on the driver: "with respect to the
    * descriptions in the first KB appearing in the ground truth" —
    * predictions whose e1 is not part of the ground truth are ignored, and a
    * repeated prediction counts once.
    */
  def evaluateOnGtE1(pred: Iterable[(Long, Long)], gt: Set[(Long, Long)]): PRF = {
    val gtE1 = gt.map(_._1)
    val restricted = pred.iterator.filter(p => gtE1.contains(p._1)).toSet
    PRF(restricted.count(gt.contains).toLong, restricted.size.toLong, gt.size.toLong)
  }

  /** Blocking quality for Table II.
    *
    * Recall (PC) = ground-truth pairs co-occurring in some block / |GT|;
    * Precision (PQ) = ground-truth pairs co-occurring / total comparisons
    * (duplicates across blocks counted, as is standard for ||B||).
    */
  def blockingPRF(candidatePairs: DataFrame, gt: DataFrame, totalComparisons: Double): PRF = {
    val found = gt.join(candidatePairs.select("e1", "e2"), Seq("e1", "e2"), "left_semi").count()
    PRF(found, math.max(1L, totalComparisons.toLong), gt.count())
  }
}
