package repro.kb

import repro.{Oracle, SparkSpec}
import repro.core.KB

class DatasetStatsSpec extends SparkSpec {
  import spark.implicits._

  private def lit(e: Long, p: String, v: String) = KB.TripleRow(e, p, Some(v), None)
  private def rel(e: Long, p: String, o: Long)   = KB.TripleRow(e, p, None, Some(o))

  test("of counts every Table I statistic of a hand-built KB") {
    val kb = KB.fromRows(spark, Seq(
      lit(0, "ns1:name", "Alpha beta"),
      lit(0, "ns1:label", "gamma delta"),
      lit(0, "ns1:type", "Person"),
      rel(0, "ns2:knows", 1),
      lit(1, "ns1:name", "x x x"),
      lit(1, "ns2:note", "x-ray"),
      lit(1, "ns2:type", "Thing"),
      rel(2, "ns2:knows", 0),
      lit(3, "ns1:type", "Place"),
      lit(3, "ns1:type", "Person"),
      lit(3, "ns2:type", "Agent"),
      lit(3, "ns2:type", "Event")))
    // Tokens are counted as a bag ("x x x" is 3): 2 + 2 + 3 + 2 = 9 over the
    // entities with a non-type literal, 0 and 1. Entity 2 (relations only)
    // and entity 3 (types only) are not among them.
    assert(DatasetStats.of(kb) == KBStats(
      entities = 4, triples = 12, avgTokens = 4.5,
      attributes = 3, relations = 1, types = 5, vocabularies = 2))
  }

  test("of agrees with DuckDB on both Rexa-DBLP KBs") {
    val rexa = KBGen.generate(spark, Datasets.testScale(Datasets.rexaDblp))
    for (kb <- Seq(rexa.kb1, rexa.kb2)) {
      val s = DatasetStats.of(kb)
      Oracle.assertEquivalent(
        Seq((s.entities, s.triples, s.attributes, s.relations, s.types, s.vocabularies))
          .toDF("entities", "triples", "attributes", "relations", "types", "vocabularies"),
        """SELECT count(DISTINCT eid) AS entities,
          |       count(*) AS triples,
          |       count(DISTINCT CASE WHEN lit IS NOT NULL AND NOT contains(pred, ':type') THEN pred END) AS attributes,
          |       count(DISTINCT CASE WHEN obj IS NOT NULL THEN pred END) AS relations,
          |       count(DISTINCT CASE WHEN lit IS NOT NULL AND contains(pred, ':type') THEN lit END) AS types,
          |       count(DISTINCT split_part(pred, ':', 1)) AS vocabularies
          |FROM triples""".stripMargin,
        "triples" -> kb)
    }
  }
}
