package repro.core

import repro.SparkSpec
import org.apache.spark.sql.{DataFrame, Row}
import org.scalacheck.{Gen, rng}

/** The candidate-graph H2, H3 and H4 equal [[ReferenceHeuristics]] on random
  * similarity tables with tied sims, neighbor-only pairs, zero neighbor sims
  * and random matched lists, which may repeat an id.
  *
  * Every heuristic decides per entity, so many random cases are checked in
  * one Spark query: case i's entity ids are shifted by i * Stride, which
  * keeps the cases from sharing an entity.
  */
class HeuristicsEquivalenceSpec extends SparkSpec {
  import spark.implicits._

  private final case class Case(vs: Seq[(Long, Long, Double)],
                                ns: Seq[(Long, Long, Double)],
                                matched1: Seq[Long],
                                matched2: Seq[Long],
                                candidates: Seq[(Long, Long, String)])

  private val Stride = 100L
  private val ids = Gen.choose(0L, 5L)
  private def sims(values: Double*): Gen[Seq[(Long, Long, Double)]] =
    Gen.listOf(for (a <- ids; b <- ids; s <- Gen.oneOf(values)) yield (a, b, s))
      .map(_.distinctBy(p => (p._1, p._2)))
  /** A matched list may repeat an id, as H1 may match an e1 twice. */
  private def matched: Gen[Seq[Long]] =
    Gen.choose(0, 3).flatMap(n => Gen.listOfN(n, ids))

  private val genCase: Gen[Case] = for {
    vs <- sims(0.25, 0.5, 1.0, 1.5, 2.0)
    ns <- sims(0.0, 0.5, 1.0, 3.0)
    m1 <- matched
    m2 <- matched
    cands <- Gen.listOf(for (a <- ids; b <- ids; h <- Gen.oneOf("H1", "H2", "H3")) yield (a, b, h))
  } yield Case(vs, ns, m1, m2, cands.distinctBy(p => (p._1, p._2)))

  /** 200 random cases packed into one set of tables. */
  private object t {
    val cases = Gen.listOfN(200, genCase).apply(Gen.Parameters.default, rng.Seed(1L)).get
    private def shifted[A](f: Case => Seq[A])(shift: (A, Long) => A): Seq[A] =
      cases.zipWithIndex.flatMap { case (c, i) => f(c).map(shift(_, i * Stride)) }
    val vs = shifted(_.vs)((p, o) => (p._1 + o, p._2 + o, p._3)).toDF("e1", "e2", "vsim")
    val ns = shifted(_.ns)((p, o) => (p._1 + o, p._2 + o, p._3)).toDF("e1", "e2", "nsim")
    val matched1 = shifted(_.matched1)(_ + _).toDF("e1")
    val matched2 = shifted(_.matched2)(_ + _).toDF("e2")
    val candidates = shifted(_.candidates)((p, o) => (p._1 + o, p._2 + o, p._3)).toDF("e1", "e2", "heuristic")
  }

  private def rows(df: DataFrame): Set[Row] = df.collect().toSet

  private def assertSame(graphBased: DataFrame, reference: DataFrame, what: String): Unit = {
    val (g, r) = (rows(graphBased), rows(reference))
    assert(r.nonEmpty, s"$what: the reference selects nothing, so the check is vacuous")
    assert(g == r, s"$what: only graph-based ${g -- r}, only reference ${r -- g}")
  }

  test("the random matched lists repeat ids") {
    def repeats(ms: Seq[Long]) = ms.distinct.size < ms.size
    assert(t.cases.exists(c => repeats(c.matched1)) && t.cases.exists(c => repeats(c.matched2)))
  }

  test("H2 on the candidate graph equals the reference") {
    assertSame(Heuristics.h2(Heuristics.graph(t.vs, t.ns, 15), t.matched1, t.matched2),
               ReferenceHeuristics.h2(t.vs, t.matched1, t.matched2), "H2")
  }

  test("H3 on the candidate graph equals the reference for every K and theta") {
    for (k <- Seq(1, 2, 15); theta <- Seq(0.1, 0.6, 1.0))
      assertSame(Heuristics.h3OnGraph(Heuristics.graph(t.vs, t.ns, k), t.matched1, t.matched2, k, theta),
                 ReferenceHeuristics.h3(t.vs, t.ns, t.matched1, t.matched2, k, theta),
                 s"H3, K=$k, theta=$theta")
  }

  test("H4 on the candidate graph equals the reference for every K") {
    for (k <- Seq(1, 2, 15))
      assertSame(Heuristics.h4OnGraph(t.candidates, Heuristics.graph(t.vs, t.ns, k)),
                 ReferenceHeuristics.h4(t.candidates, t.vs, t.ns, k), s"H4, K=$k")
  }

  test("H2's and H3's rows filtered on their reciprocal flag equal H4 of them in the reference") {
    def flagged(rows: DataFrame) = rows.where($"reciprocal").drop("reciprocal")
    for (k <- Seq(1, 2, 15)) {
      val graph = Heuristics.graph(t.vs, t.ns, k)
      assertSame(flagged(Heuristics.h2(graph, t.matched1, t.matched2, "reciprocal")),
                 ReferenceHeuristics.h4(ReferenceHeuristics.h2(t.vs, t.matched1, t.matched2), t.vs, t.ns, k),
                 s"H2 then H4, K=$k")
      assertSame(flagged(Heuristics.h3OnGraph(graph, t.matched1, t.matched2, k, 0.6, "reciprocal")),
                 ReferenceHeuristics.h4(ReferenceHeuristics.h3(t.vs, t.ns, t.matched1, t.matched2, k, 0.6),
                                        t.vs, t.ns, k),
                 s"H3 then H4, K=$k")
    }
  }
}
