package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class TokenizerSpec extends SparkSpec {
  import spark.implicits._

  test("tokenize lowercases") {
    assert(Tokenizer.tokenize("Hello World") == Seq("hello", "world"))
  }

  test("tokenize splits on punctuation runs") {
    assert(Tokenizer.tokenize("a,b;;c--d") == Seq("a", "b", "c", "d"))
  }

  test("tokenize keeps digits") {
    assert(Tokenizer.tokenize("route 66") == Seq("route", "66"))
  }

  test("tokenize keeps alphanumeric tokens whole") {
    assert(Tokenizer.tokenize("fn12 ln34") == Seq("fn12", "ln34"))
  }

  test("tokenize drops empty fragments") {
    assert(Tokenizer.tokenize("  --  a  ") == Seq("a"))
  }

  test("tokenize of null is empty") {
    assert(Tokenizer.tokenize(null) == Seq.empty)
  }

  test("tokenize of pure punctuation is empty") {
    assert(Tokenizer.tokenize("!!! ???") == Seq.empty)
  }

  test("tokenize preserves unicode letters") {
    assert(Tokenizer.tokenize("café müller") == Seq("café", "müller"))
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

  test("avgTokensPerEntity counts bag tokens over entities") {
    // entity 0: 4 bag tokens, entity 1: 3, entity 2: 0 (relation only) -> 7/3
    assert(math.abs(Tokenizer.avgTokensPerEntity(kb) - 7.0 / 3) < 1e-9)
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
}
