package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.core._

/** SigmaLite with inputs it builds from the KBs on its own: its own tokens,
  * Block Purging and valueSim, H1 seeds over its own name attributes, and
  * neighbors over its own top relations (default MinoanER parameters). It is
  * the reference that [[SigmaLite.resolve]], which reads all of these from a
  * `MinoanERResult`, is checked against.
  */
object ReferenceSigmaLite {

  def resolve(kb1: DataFrame, kb2: DataFrame): Seq[(Long, Long)] = {
    val params = MinoanERParams()
    val tok1 = Tokenizer.entityTokens(kb1)
    val tok2 = Tokenizer.entityTokens(kb2)
    val kept = TokenBlocking.purge(TokenBlocking.blocks(tok1, tok2), params.purgeSmooth)
    val vs = ValueSim.pairSims(tok1, tok2, ValueSim.tokenWeights(kept))
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq

    val nameAttrs1 = AttributeStats.topKNameAttributes(kb1, params.k)
    val nameAttrs2 = AttributeStats.topKNameAttributes(kb2, params.k)
    val seeds = NameBlocking.h1Matches(
        NameBlocking.names(kb1, nameAttrs1), NameBlocking.names(kb2, nameAttrs2))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSeq

    def nbrMap(kb: DataFrame, rels: Seq[String]): Map[Long, Seq[Long]] =
      NeighborSim.topNeighbors(kb, rels).collect()
        .groupBy(_.getLong(0)).map { case (k, rows) => k -> rows.map(_.getLong(1)).toSeq }

    val nb1 = nbrMap(kb1, AttributeStats.topNRelations(kb1, params.N))
    val nb2 = nbrMap(kb2, AttributeStats.topNRelations(kb2, params.N))
    SigmaLite.run(vs, seeds, nb1, nb2)
  }
}
