package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baseline.Ngrams

class TokenizerSpec extends SparkSpec {
  import spark.implicits._

  /** `Tokenizer.tokens` of `s` on a one-row frame; a null array, which
    * `explode` treats as empty, reads as no tokens.
    */
  private def tokenize(s: String): Seq[String] =
    Option(Seq(s).toDF("s").select(Tokenizer.tokens(col("s"))).head().getSeq[String](0)).getOrElse(Seq.empty)

  test("tokenize lowercases") {
    assert(tokenize("Hello World") == Seq("hello", "world"))
  }

  test("tokenize splits on punctuation runs") {
    assert(tokenize("a,b;;c--d") == Seq("a", "b", "c", "d"))
  }

  test("tokenize keeps digits") {
    assert(tokenize("route 66") == Seq("route", "66"))
  }

  test("tokenize keeps alphanumeric tokens whole") {
    assert(tokenize("fn12 ln34") == Seq("fn12", "ln34"))
  }

  test("tokenize drops empty fragments") {
    assert(tokenize("  --  a  ") == Seq("a"))
  }

  test("tokenize of null is empty") {
    assert(tokenize(null) == Seq.empty)
  }

  test("tokenize of pure punctuation is empty") {
    assert(tokenize("!!! ???") == Seq.empty)
  }

  test("tokenize preserves unicode letters") {
    assert(tokenize("café müller") == Seq("café", "müller"))
  }

  test("tokenize writes a final sigma by Unicode's rule, as the names' lower does") {
    // The JVM's String.toLowerCase gives the other form in both values.
    assert(tokenize("aΣ-b") == Seq("aς", "b"))
    assert(tokenize("L3Σ'") == Seq("l3σ"))
  }

  private def kb = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "a", Some("x y"), None),
    KB.TripleRow(0, "b", Some("y z"), None),
    KB.TripleRow(1, "a", Some("x x x"), None),
    KB.TripleRow(2, "r", None, Some(0L))))

  test("entityTokens is distinct per entity") {
    val t = Tokenizer.entityTokens(kb).as[(Long, String)].collect().toSet
    assert(t == Set((0L, "x"), (0L, "y"), (0L, "z"), (1L, "x")))
  }

  test("entityTokens ignores relation triples") {
    val t = Tokenizer.entityTokens(kb)
    assert(t.where(col("eid") === 2).count() == 0)
  }

  test("entityTokens agrees with DuckDB token explosion oracle") {
    val counts = Tokenizer.entityTokens(kb)
      .groupBy("eid").agg(count(lit(1)).as("ntok"))
    Oracle.assertEquivalent(
      counts,
      """SELECT eid, count(DISTINCT tok) AS ntok
        |FROM (SELECT eid, unnest(string_split(lower(lit), ' ')) AS tok
        |      FROM triples WHERE lit IS NOT NULL)
        |GROUP BY eid""".stripMargin,
      "triples" -> kb)
  }

  test("tokens, B_T and the BSL grams plan no Scala UDF") {
    def udfs(df: DataFrame) =
      df.queryExecution.analyzed.flatMap(_.expressions.flatMap(_.collect { case u: ScalaUDF => u }))
    val blocking = new Blocking(kb, kb, MinoanERParams())
    val plans = Seq(blocking.tokens1, blocking.tokens2) ++ Seq(1, 2, 3).map(Ngrams.entityGrams(kb, _))
    for (df <- plans) assert(udfs(df).isEmpty, df.queryExecution.analyzed)
    blocking.unpersist()
  }
}
