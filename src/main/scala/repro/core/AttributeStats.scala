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

  /** Every predicate's statistics from one aggregation, collected once: the
    * grouping set (relation, pred) counts its entities and distinct objects,
    * the set () counts |E|. An empty KB has no rows, so no statistics.
    */
  def of(triples: DataFrame): Seq[PredStats] = {
    val (relation, pred) = (col("relation"), col(KB.Pred))
    val rows = triples.withColumn("relation", col(KB.Obj).isNotNull)
      .groupingSets(Seq(Seq(relation, pred), Seq()), relation, pred)
      .agg(countDistinct(KB.Eid), countDistinct(coalesce(col(KB.Lit), col(KB.Obj).cast("string"))),
           grouping_id())
      .collect()
    val (total, grouped) = rows.partition(_.getLong(4) != 0L)
    val n = total.headOption.fold(1L)(r => math.max(1L, r.getLong(2))).toDouble
    grouped.toSeq.map { r =>
      val ents = r.getLong(2)
      val s = ents / n
      // Multi-valued attributes can have more distinct objects than carrying
      // entities; a ratio above 1 adds no identifying power, so cap at 1.
      val d = math.min(1.0, r.getLong(3).toDouble / ents)
      PredStats(r.getString(1), r.getBoolean(0), s, d, if (s + d > 0) 2.0 * s * d / (s + d) else 0.0)
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
