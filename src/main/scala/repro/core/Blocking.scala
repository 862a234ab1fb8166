package repro.core

import org.apache.spark.sql.DataFrame

/** The schema-agnostic blocking front end of one KB pair: names and the
  * name blocks B_N, tokens and the token blocks B_T before and after Block
  * Purging. MinoanER and the BSL baseline read the same block collections,
  * so both build them here.
  *
  * Every member is lazy and nothing is cached. A caller that reads a frame
  * more than once caches it in place (`Dataset.cache()` returns the same
  * frame) before the members derived from it are first read, as
  * `MinoanER.resolve` does for the tokens and token blocks.
  */
final class Blocking(kb1: DataFrame, kb2: DataFrame, params: MinoanERParams) {

  lazy val nameAttrs1: Seq[String] = AttributeStats.topKNameAttributes(kb1, params.k)
  lazy val nameAttrs2: Seq[String] = AttributeStats.topKNameAttributes(kb2, params.k)

  lazy val names1: DataFrame = NameBlocking.names(kb1, nameAttrs1)  // (eid, name)
  lazy val names2: DataFrame = NameBlocking.names(kb2, nameAttrs2)

  /** B_N: (name, n1, n2, comparisons). */
  lazy val nameBlocks: DataFrame = NameBlocking.blocks(names1, names2)

  lazy val tokens1: DataFrame = Tokenizer.entityTokens(kb1)  // (eid, token)
  lazy val tokens2: DataFrame = Tokenizer.entityTokens(kb2)

  /** B_T before purging: (token, n1, n2, comparisons). */
  lazy val tokenBlocksAll: DataFrame = TokenBlocking.blocks(tokens1, tokens2)

  /** B_T after Block Purging. Reading it runs the purge histogram job. */
  lazy val tokenBlocks: DataFrame = TokenBlocking.purge(tokenBlocksAll, params.purgeSmooth)

  /** (e1, e2): every pair that shares a block of B_N or of the purged B_T. */
  lazy val candidatePairs: DataFrame =
    NameBlocking.candidatePairs(names1, names2)
      .union(TokenBlocking.candidatePairs(tokens1, tokens2, tokenBlocks))
      .distinct()
}
