package repro.core

import repro.{Oracle, SparkSpec}
import repro.kb.{Datasets, KBGen}

class AttributeStatsSpec extends SparkSpec {
  import spark.implicits._

  // 4 entities; attr "name" on all 4 with 4 distinct values;
  // attr "cat" on all 4 with 1 distinct value; attr "rare" on 1 entity.
  private def kb = KB.fromRows(spark, Seq(
    KB.TripleRow(0, "name", Some("n0"), None),
    KB.TripleRow(1, "name", Some("n1"), None),
    KB.TripleRow(2, "name", Some("n2"), None),
    KB.TripleRow(3, "name", Some("n3"), None),
    KB.TripleRow(0, "cat", Some("c"), None),
    KB.TripleRow(1, "cat", Some("c"), None),
    KB.TripleRow(2, "cat", Some("c"), None),
    KB.TripleRow(3, "cat", Some("c"), None),
    KB.TripleRow(0, "rare", Some("r0"), None),
    KB.TripleRow(0, "knows", None, Some(1L)),
    KB.TripleRow(1, "knows", None, Some(2L)),
    KB.TripleRow(2, "knows", None, Some(2L)),
    KB.TripleRow(0, "likes", None, Some(3L))))

  private def statsOf(relation: Boolean): Map[String, (Double, Double, Double)] =
    AttributeStats.of(kb).filter(_.relation == relation)
      .map(p => p.pred -> (p.support, p.discriminability, p.importance)).toMap

  private def statsMap = statsOf(relation = false)

  test("support of a universal attribute is 1") {
    assert(math.abs(statsMap("name")._1 - 1.0) < 1e-9)
  }

  test("support of a rare attribute is its entity fraction") {
    assert(math.abs(statsMap("rare")._1 - 0.25) < 1e-9)
  }

  test("discriminability of an all-distinct attribute is 1") {
    assert(math.abs(statsMap("name")._2 - 1.0) < 1e-9)
  }

  test("discriminability of a constant attribute is 1/n") {
    assert(math.abs(statsMap("cat")._2 - 0.25) < 1e-9)
  }

  test("importance is the harmonic mean of support and discriminability") {
    val (s, d, imp) = statsMap("cat")
    assert(math.abs(imp - 2 * s * d / (s + d)) < 1e-9)
  }

  test("name attribute ranks above constant and rare attributes") {
    assert(AttributeStats.topKNameAttributes(kb, 1) == Seq("name"))
  }

  test("topK returns k attributes ordered by importance") {
    val top2 = AttributeStats.topKNameAttributes(kb, 2)
    assert(top2.head == "name" && top2.size == 2)
  }

  test("relation stats cover relation predicates only") {
    val rels = statsOf(relation = true).keySet
    assert(rels == Set("knows", "likes"))
  }

  test("relation support counts subjects") {
    val m = statsOf(relation = true).map { case (p, (s, _, _)) => p -> s }
    assert(math.abs(m("knows") - 0.75) < 1e-9)
    assert(math.abs(m("likes") - 0.25) < 1e-9)
  }

  test("relation discriminability counts distinct targets") {
    val m = statsOf(relation = true).map { case (p, (_, d, _)) => p -> d }
    assert(math.abs(m("knows") - 2.0 / 3) < 1e-9)
  }

  test("topN relations ranks the well-supported discriminative relation first") {
    assert(AttributeStats.topNRelations(kb, 1) == Seq("knows"))
  }

  test("topN with n larger than relation count returns all") {
    assert(AttributeStats.topNRelations(kb, 5).toSet == Set("knows", "likes"))
  }

  test("of equal importance, the smaller predicate name ranks first") {
    // "b" and "a" both have support 1 and discriminability 1.
    val tied = KB.fromRows(spark, Seq(
      KB.TripleRow(0, "b", Some("b0"), None),
      KB.TripleRow(1, "b", Some("b1"), None),
      KB.TripleRow(0, "a", Some("a0"), None),
      KB.TripleRow(1, "a", Some("a1"), None),
      KB.TripleRow(0, "c", Some("c"), None)))
    assert(AttributeStats.topKNameAttributes(tied, 1) == Seq("a"))
    val stats = Seq("b", "c", "a").map(PredStats(_, relation = false, 1.0, 1.0, 1.0))
    assert(AttributeStats.top(stats, relation = false, 3) == Seq("a", "b", "c"))
  }

  test("an empty KB has no statistics and empty top lists") {
    val empty = KB.fromRows(spark, Seq.empty)
    assert(AttributeStats.of(empty).isEmpty)
    assert(AttributeStats.topKNameAttributes(empty, 2) == Seq())
    assert(AttributeStats.topNRelations(empty, 3) == Seq())
  }

  test("a KB without relations has no top relations") {
    val literalsOnly = KB.literals(kb)
    assert(AttributeStats.topNRelations(literalsOnly, 3) == Seq())
    assert(AttributeStats.topKNameAttributes(literalsOnly, 1) == Seq("name"))
  }

  // Resolve's front end aggregates both KBs of a pair at once, tagged by side;
  // each side's statistics must be those of its KB aggregated alone.
  for (cfg <- Datasets.all)
    test(s"${cfg.name} @ test scale: the pair aggregation equals each KB's own statistics") {
      val pair = KBGen.generate(spark, Datasets.testScale(cfg))
      val Seq(s1, s2) = AttributeStats.ofEach(Seq(pair.kb1, pair.kb2))
      assert(s1.nonEmpty && s2.nonEmpty)
      assert(s1.toSet == AttributeStats.of(pair.kb1).toSet)
      assert(s2.toSet == AttributeStats.of(pair.kb2).toSet)
    }

  test("a pair with an empty KB has no statistics on that side only") {
    val Seq(none, some) = AttributeStats.ofEach(Seq(KB.fromRows(spark, Seq.empty), kb))
    assert(none.isEmpty && some.toSet == AttributeStats.of(kb).toSet)
  }

  // DuckDB counts each predicate's entities and distinct objects, then applies
  // the paper's formulas; `of` must agree for the given kind of predicate on
  // this KB and on both Rexa-DBLP KBs. The oracle loads every column as VARCHAR.
  private def assertRawCountsAgreeWithDuckDB(relation: Boolean): Unit = {
    val rexa = KBGen.generate(spark, Datasets.testScale(Datasets.rexaDblp))
    for (triples <- Seq(kb, rexa.kb1, rexa.kb2))
      Oracle.assertEquivalent(
        AttributeStats.of(triples).filter(_.relation == relation).toDF(),
        s"""WITH n AS (SELECT greatest(1, count(DISTINCT CAST(eid AS BIGINT))) AS n FROM triples),
          |     g AS (SELECT pred, obj IS NOT NULL AS relation,
          |                  CAST(count(DISTINCT CAST(eid AS BIGINT)) AS DOUBLE) AS ents,
          |                  CAST(count(DISTINCT coalesce(lit, obj)) AS DOUBLE) AS vals
          |           FROM triples WHERE (obj IS NOT NULL) = $relation
          |           GROUP BY pred, obj IS NOT NULL),
          |     s AS (SELECT pred, relation, ents / n AS support,
          |                  least(CAST(1 AS DOUBLE), vals / ents) AS discriminability
          |           FROM g, n)
          |SELECT pred, relation, support, discriminability,
          |       CASE WHEN support + discriminability > 0
          |            THEN 2 * support * discriminability / (support + discriminability)
          |            ELSE 0 END AS importance
          |FROM s""".stripMargin,
        "triples" -> triples)
  }

  test("literal attr raw counts agree with DuckDB oracle") {
    assertRawCountsAgreeWithDuckDB(relation = false)
  }

  test("relation raw counts agree with DuckDB oracle") {
    assertRawCountsAgreeWithDuckDB(relation = true)
  }
}
