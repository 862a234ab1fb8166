package repro.kb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{KB, Tokenizer}

/** Per-KB statistics reproducing the rows of the paper's Table I. */
final case class KBStats(
    entities: Long,
    triples: Long,
    avgTokens: Double,  // bag tokens per entity with a non-type literal
    attributes: Long,   // distinct literal predicates (type predicate excluded)
    relations: Long,    // distinct entity-valued predicates
    types: Long,        // distinct values of the type predicate
    vocabularies: Long) // distinct namespace prefixes over all predicates

object DatasetStats {

  /** All of a KB's statistics from one aggregation. */
  def of(kb: DataFrame): KBStats = {
    val isType    = col(KB.Pred).contains(":type")
    val attribute = col(KB.Lit).isNotNull && !isType
    val r = kb.agg(
      countDistinct(col(KB.Eid)),
      count(lit(1)),
      countDistinct(when(attribute, col(KB.Eid))),
      coalesce(sum(when(attribute, size(Tokenizer.tokens(col(KB.Lit))))), lit(0L)),
      countDistinct(when(attribute, col(KB.Pred))),
      countDistinct(when(col(KB.Obj).isNotNull, col(KB.Pred))),
      countDistinct(when(col(KB.Lit).isNotNull && isType, col(KB.Lit))),
      countDistinct(split(col(KB.Pred), ":").getItem(0))
    ).head()
    val tokenEntities = r.getLong(2)
    val avgTokens = if (tokenEntities == 0) 0.0 else r.getLong(3).toDouble / tokenEntities
    KBStats(r.getLong(0), r.getLong(1), avgTokens, r.getLong(4), r.getLong(5), r.getLong(6), r.getLong(7))
  }
}
