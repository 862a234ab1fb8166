package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Triple-table representation of a Knowledge Base.
  *
  * An entity description is a set of attribute–value pairs; a value is either
  * a literal string or a link to another entity of the same KB. One row per
  * pair:
  *
  *   - `eid`  LONG   — subject entity id (0-based, per KB)
  *   - `pred` STRING — attribute / relation name
  *   - `lit`  STRING — literal value (null for relation triples)
  *   - `obj`  LONG   — target entity id (null for literal triples)
  *
  * Exactly one of `lit` / `obj` is non-null per row.
  */
object KB {
  val Eid  = "eid"
  val Pred = "pred"
  val Lit  = "lit"
  val Obj  = "obj"

  /** One attribute–value pair of one entity. */
  final case class TripleRow(eid: Long, pred: String, lit: Option[String], obj: Option[Long])

  /** Materialize driver-side rows as a KB DataFrame. */
  def fromRows(spark: SparkSession, rows: Seq[TripleRow]): DataFrame = {
    import spark.implicits._
    rows.toDF(Eid, Pred, Lit, Obj)
  }

  /** Literal (attribute) triples only. */
  def literals(triples: DataFrame): DataFrame = triples.where(col(Lit).isNotNull)

  /** Relation (entity-valued) triples only. */
  def relations(triples: DataFrame): DataFrame = triples.where(col(Obj).isNotNull)

  /** Number of described entities (distinct subjects). */
  def numEntities(triples: DataFrame): Long = triples.select(Eid).distinct().count()
}
