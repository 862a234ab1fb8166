package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The statistics of one literal attribute, or of one relation. */
final case class PredStats(pred: String, relation: Boolean, support: Double,
                           discriminability: Double, importance: Double)

/** Predicate-importance statistics.
  *
  * The paper defines the importance of a predicate p in a KB E as the
  * harmonic mean of:
  *   - support(p):          |entities of E containing p| / |E|
  *   - discriminability(p): |distinct objects of p| / |entities containing p|
  *
  * The same definition is applied to literal attributes (to pick the k most
  * distinctive "name" attributes) and to relations (to pick the N most
  * important relations whose targets are an entity's "best neighbors").
  */
object AttributeStats {

  /** Every predicate's statistics of one KB: [[ofEach]] on that KB alone. */
  def of(triples: DataFrame): Seq[PredStats] = ofEach(Seq(triples)).head

  /** Every predicate's statistics of each KB, from one aggregation over the
    * side-tagged union of the KBs, collected once: the grouping set
    * (side, relation, pred) counts each predicate's entities and distinct
    * objects, the set (side) counts each KB's |E|. An empty KB has no rows,
    * so no statistics.
    */
  def ofEach(kbs: Seq[DataFrame]): Seq[Seq[PredStats]] = {
    val (side, relation, pred) = (col("side"), col("relation"), col(KB.Pred))
    val rows = kbs.zipWithIndex
      .map { case (t, i) => t.select(lit(i).as("side"), col(KB.Eid), col(KB.Pred), col(KB.Lit), col(KB.Obj)) }
      .reduce(_ union _)
      .withColumn("relation", col(KB.Obj).isNotNull)
      .groupingSets(Seq(Seq(side, relation, pred), Seq(side)), side, relation, pred)
      .agg(countDistinct(KB.Eid), countDistinct(coalesce(col(KB.Lit), col(KB.Obj).cast("string"))),
           grouping_id())
      .collect()
    val (totals, grouped) = rows.partition(_.getLong(5) != 0L)
    val n = totals.map(r => r.getInt(0) -> math.max(1L, r.getLong(3)).toDouble).toMap
    kbs.indices.map { i =>
      grouped.toSeq.filter(_.getInt(0) == i).map { r =>
        val ents = r.getLong(3)
        val s = ents / n.getOrElse(i, 1.0)
        // Multi-valued attributes can have more distinct objects than carrying
        // entities; a ratio above 1 adds no identifying power, so cap at 1.
        val d = math.min(1.0, r.getLong(4).toDouble / ents)
        PredStats(r.getString(2), r.getBoolean(1), s, d, if (s + d > 0) 2.0 * s * d / (s + d) else 0.0)
      }
    }
  }

  /** The k most important predicates of one kind, by importance, then name. */
  def top(stats: Seq[PredStats], relation: Boolean, k: Int): Seq[String] =
    stats.filter(_.relation == relation)
      .sortWith((a, b) => a.importance > b.importance || a.importance == b.importance && a.pred < b.pred)
      .take(k).map(_.pred)

  /** The k most distinctive literal attributes — their values act as names. */
  def topKNameAttributes(triples: DataFrame, k: Int): Seq[String] = top(of(triples), relation = false, k)

  /** The N most important relations — their targets are "best neighbors". */
  def topNRelations(triples: DataFrame, n: Int): Seq[String] = top(of(triples), relation = true, n)
}
