package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Schema-agnostic tokenization of literal values.
  *
  * MinoanER treats a description as a bag of strings regardless of the
  * attributes they appear under: values are lower-cased and split on any
  * non-alphanumeric run.
  */
object Tokenizer {

  /** Tokenize one literal value: lowercase, split on non-letter/digit runs. */
  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase.split("[^\\p{L}\\p{N}]+").iterator.filter(_.nonEmpty).toSeq

  private val tokenizeUdf = udf((s: String) => tokenize(s))

  /** Distinct (eid, token) pairs over all literal values of a KB.
    *
    * Set semantics: Entity Frequency and valueSim are defined over distinct
    * tokens per entity.
    */
  def entityTokens(triples: DataFrame): DataFrame =
    KB.literals(triples)
      .select(col(KB.Eid), explode(tokenizeUdf(col(KB.Lit))).as("token"))
      .distinct()

  /** Average number of (bag) tokens per entity — Table I's "av. tokens". */
  def avgTokensPerEntity(triples: DataFrame): Double = {
    val n = KB.numEntities(triples)
    if (n == 0) 0.0
    else {
      val total = KB.literals(triples)
        .select(explode(tokenizeUdf(col(KB.Lit))).as("token"))
        .count()
      total.toDouble / n
    }
  }
}
