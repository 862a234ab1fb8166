package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.core.KB
import scala.collection.mutable

/** PARIS-style probabilistic matcher (stand-in for PARIS [10]).
  *
  * PARIS derives match probabilities from the (inverse) functionality of
  * predicates: if two entities share the object of highly inverse-functional
  * predicates, they are probably the same. We keep its two evidence channels:
  *
  *  - literal evidence (static): for every literal value v shared by x (via
  *    predicate p) and y (via q),
  *        P(x ≡ y) ≥ 1 - Π (1 - invFun(p) · invFun(q));
  *  - relational evidence (iterated): for every pair of edges r(x, x'),
  *    s(y, y'),  the factor invFun(r) · invFun(s) · P(x' ≡ y') is folded in,
  *    propagating matches along the entity graphs for a fixed number of
  *    rounds.
  *
  * Final alignment = Unique Mapping over P with a probability threshold.
  * Unlike PARIS we do not align relations explicitly (its relation-alignment
  * subproblem); evidence is summed over all predicate pairs, which preserves
  * its behaviour on functional data and its collapse under structural
  * heterogeneity.
  */
object ParisLite {

  /** invFun per predicate: avg over its objects of 1/#subjects(pred, obj). */
  private def inverseFunctionality(facts: Seq[(Long, String, String)]): Map[String, Double] =
    facts.groupBy(f => (f._2, f._3))
      .map { case ((p, _), fs) => (p, 1.0 / fs.map(_._1).distinct.size) }
      .groupBy(_._1)
      .map { case (p, vs) => p -> vs.map(_._2).sum / vs.size }

  def run(lits1: Seq[(Long, String, String)], lits2: Seq[(Long, String, String)],
          rels1: Seq[(Long, String, Long)], rels2: Seq[(Long, String, Long)],
          iterations: Int = 2,
          threshold: Double = 0.2,
          valueCap: Int = 50): Seq[(Long, Long)] = {

    val if1 = inverseFunctionality(lits1)
    val if2 = inverseFunctionality(lits2)
    val rf1 = inverseFunctionality(rels1.map(r => (r._1, r._2, r._3.toString)))
    val rf2 = inverseFunctionality(rels2.map(r => (r._1, r._2, r._3.toString)))

    // Literal evidence: group by shared value, cap hyper-frequent values.
    val byVal1 = lits1.groupBy(_._3)
    val byVal2 = lits2.groupBy(_._3)
    val litLogComp = mutable.HashMap.empty[(Long, Long), Double] // Σ log(1 - e)
    for ((v, fs1) <- byVal1; fs2 <- byVal2.get(v).toSeq
         if fs1.size <= valueCap && fs2.size <= valueCap;
         (x, p, _) <- fs1; (y, q, _) <- fs2) {
      val e = math.min(0.999999, if1.getOrElse(p, 0.0) * if2.getOrElse(q, 0.0))
      val key = (x, y)
      litLogComp(key) = litLogComp.getOrElse(key, 0.0) + math.log1p(-e)
    }

    var prob: Map[(Long, Long), Double] =
      litLogComp.map { case (k, lc) => k -> (1.0 - math.exp(lc)) }.toMap

    // Relational propagation.
    val in1 = rels1.groupBy(_._3) // target -> edges r(x, target)
    val in2 = rels2.groupBy(_._3)
    for (_ <- 1 to iterations) {
      val relLogComp = mutable.HashMap.empty[(Long, Long), Double]
      for (((x1, y1), p) <- prob if p > 0.05;
           (x, r, _) <- in1.getOrElse(x1, Seq.empty);
           (y, s, _) <- in2.getOrElse(y1, Seq.empty)) {
        val e = math.min(0.999999, rf1.getOrElse(r, 0.0) * rf2.getOrElse(s, 0.0) * p)
        val key = (x, y)
        relLogComp(key) = relLogComp.getOrElse(key, 0.0) + math.log1p(-e)
      }
      val keys = prob.keySet ++ relLogComp.keySet
      prob = keys.iterator.map { k =>
        val lit = litLogComp.getOrElse(k, 0.0)
        val rel = relLogComp.getOrElse(k, 0.0)
        k -> (1.0 - math.exp(lit + rel))
      }.toMap
    }

    UniqueMappingClustering
      .cluster(prob.iterator.map { case ((a, b), p) => (a, b, p) }.toSeq, threshold)
      .map(p => (p._1, p._2))
  }

  /** Convenience wrapper on KB DataFrames. */
  def resolve(kb1: DataFrame, kb2: DataFrame): Seq[(Long, Long)] = {
    def lits(kb: DataFrame) = KB.literals(kb).collect()
      .map(r => (r.getLong(0), r.getString(1), r.getString(2))).toSeq
    def rels(kb: DataFrame) = KB.relations(kb).collect()
      .map(r => (r.getLong(0), r.getString(1), r.getLong(3))).toSeq
    run(lits(kb1), lits(kb2), rels(kb1), rels(kb2))
  }
}
