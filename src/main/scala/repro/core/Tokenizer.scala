package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Schema-agnostic tokenization of literal values.
  *
  * MinoanER treats a description as a bag of strings regardless of the
  * attributes they appear under: values are lower-cased and split on any
  * non-alphanumeric run. The rule is one Catalyst expression, shared by B_T,
  * the BSL n-grams and Table I, and it lower-cases with the same `lower` as
  * the names of B_N.
  */
object Tokenizer {

  /** The tokens of a string column, in order: the runs of letters and digits
    * of its lower-cased value. Null for a null value, which `explode` turns
    * into no rows, as it does an empty array.
    */
  def tokens(c: Column): Column = regexp_extract_all(lower(c), lit("[\\p{L}\\p{N}]+"), lit(0))

  /** Distinct (eid, token) pairs over all literal values of a KB.
    *
    * Set semantics: Entity Frequency and valueSim are defined over distinct
    * tokens per entity.
    */
  def entityTokens(triples: DataFrame): DataFrame =
    KB.literals(triples)
      .select(col(KB.Eid), explode(tokens(col(KB.Lit))).as("token"))
      .distinct()
}
