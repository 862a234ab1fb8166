package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.core._
import scala.collection.mutable

/** SiGMa-style iterative greedy matcher (stand-in for SiGMa [3]).
  *
  * The contrast to MinoanER is the *iterative* propagation: it starts from
  * seed matches with identical entity names, keeps all candidate pairs in a
  * priority queue ordered by a relational similarity
  *
  *   score(e1, e2) = (1-α) · valueSim_norm(e1, e2) + α · nbrOverlap(e1, e2)
  *
  * where nbrOverlap is the fraction of already-matched neighbor pairs, and
  * after every accepted match re-scores the neighbor candidate pairs (their
  * position in the queue changes). The process stops when the top pair falls
  * below the threshold t (Unique Mapping semantics: each entity matched at
  * most once).
  *
  * Runs driver-side on the blocked candidate pairs — as the original
  * single-machine implementation does — with lazy re-insertion for queue
  * updates.
  */
object SigmaLite {

  def run(valueSims: Seq[(Long, Long, Double)],
          seeds: Seq[(Long, Long)],
          nbrs1: Map[Long, Seq[Long]],
          nbrs2: Map[Long, Seq[Long]],
          alpha: Double = 0.4,
          threshold: Double = 0.3): Seq[(Long, Long)] = {

    val maxV = valueSims.iterator.map(_._3).foldLeft(0.0)(math.max) max 1e-9
    val base = mutable.HashMap.empty[(Long, Long), Double]
    valueSims.foreach { case (a, b, s) => base((a, b)) = s / maxV }

    val matched1 = mutable.HashMap.empty[Long, Long] // e1 -> e2
    val matched2 = mutable.HashMap.empty[Long, Long] // e2 -> e1

    // Reverse adjacency: matching (a, b) changes the scores of the pairs
    // (x, y) that have a / b among their neighbors.
    val rev1 = nbrs1.toSeq.flatMap { case (x, ns) => ns.map(_ -> x) }
      .groupBy(_._1).map { case (k, v) => k -> v.map(_._2) }
    val rev2 = nbrs2.toSeq.flatMap { case (y, ns) => ns.map(_ -> y) }
      .groupBy(_._1).map { case (k, v) => k -> v.map(_._2) }

    def nbrOverlap(a: Long, b: Long): Double = {
      val na = nbrs1.getOrElse(a, Seq.empty)
      val nb = nbrs2.getOrElse(b, Seq.empty)
      if (na.isEmpty || nb.isEmpty) 0.0
      else {
        val nbSet = nb.toSet
        val hits = na.count(x => matched1.get(x).exists(nbSet.contains))
        hits.toDouble / math.max(na.size, nb.size)
      }
    }

    def score(a: Long, b: Long): Double =
      (1 - alpha) * base.getOrElse((a, b), 0.0) + alpha * nbrOverlap(a, b)

    val ord: Ordering[(Double, Long, Long)] =
      Ordering.Tuple3(Ordering.Double.TotalOrdering, Ordering.Long.reverse, Ordering.Long.reverse)
    val pq = mutable.PriorityQueue.empty[(Double, Long, Long)](ord)

    def accept(a: Long, b: Long): Unit = {
      matched1(a) = b; matched2(b) = a
      // Matching (a, b) can only raise the scores of pairs that point to them.
      for (x <- rev1.getOrElse(a, Seq.empty); y <- rev2.getOrElse(b, Seq.empty)
           if base.contains((x, y)) && !matched1.contains(x) && !matched2.contains(y)) {
        pq.enqueue((score(x, y), x, y))
      }
    }

    seeds.foreach { case (a, b) =>
      if (!matched1.contains(a) && !matched2.contains(b)) accept(a, b)
    }
    base.keysIterator.foreach { case (a, b) =>
      if (!matched1.contains(a) && !matched2.contains(b)) pq.enqueue((score(a, b), a, b))
    }

    while (pq.nonEmpty && pq.head._1 >= threshold) {
      val (s, a, b) = pq.dequeue()
      if (!matched1.contains(a) && !matched2.contains(b)) {
        val cur = score(a, b)
        // Lazy revalidation: stale entries get re-queued with their current score.
        if (cur >= s - 1e-12) { if (cur >= threshold) accept(a, b) }
        else pq.enqueue((cur, a, b))
      }
    }

    (matched1.toSeq.map { case (a, b) => (a, b) }).sortBy(identity)
  }

  /** Runs on the evidence `MinoanER.resolve` computed for the same KB pair:
    * its value similarities, its name blocks for the H1 seeds and the
    * neighbors over its top relations. `res.valueSims` is the one frame it
    * reads that `resolve` leaves cached; after `res.unpersist()` it is
    * recomputed.
    */
  def resolve(kb1: DataFrame, kb2: DataFrame, res: MinoanERResult): Seq[(Long, Long)] = {
    val vs = res.valueSims.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
    val seeds = NameBlocking.h1Matches(res.blocking.names1, res.blocking.names2)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

    def nbrMap(kb: DataFrame, rels: Seq[String]): Map[Long, Seq[Long]] =
      NeighborSim.topNeighbors(kb, rels).collect()
        .groupBy(_.getLong(0)).map { case (k, rows) => k -> rows.map(_.getLong(1)).toSeq }

    run(vs, seeds, nbrMap(kb1, res.blocking.topRels1), nbrMap(kb2, res.blocking.topRels2))
  }
}
