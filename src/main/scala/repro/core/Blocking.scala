package repro.core

import org.apache.spark.sql.DataFrame

/** The schema-agnostic blocking front end of one KB pair: the predicate
  * statistics of both KBs (one pass) with their name attributes and top
  * relations, names and the name blocks B_N, tokens and the token blocks B_T
  * before and after Block Purging. MinoanER, the BSL baseline and Table II
  * read the same block collections, so all three build them here.
  *
  * The constructor runs the front end's two driver actions and caches the
  * frames that both the purge and the candidate pairs read: the tokens and
  * the unpurged B_T. [[unpersist]] releases them; every member stays usable
  * after it, recomputed when read.
  */
final class Blocking(kb1: DataFrame, kb2: DataFrame, params: MinoanERParams) {

  val tokens1: DataFrame = MinoanER.cache(Tokenizer.entityTokens(kb1))  // (eid, token)
  val tokens2: DataFrame = MinoanER.cache(Tokenizer.entityTokens(kb2))

  /** B_T before purging: (token, n1, n2, comparisons). */
  val tokenBlocksAll: DataFrame = MinoanER.cache(TokenBlocking.blocks(tokens1, tokens2))

  // The statistics of both KBs and the purge histogram are independent, so
  // they run at the same time; the histogram job fills the three caches.
  private val (stats, purged) =
    Parallel.both(AttributeStats.ofEach(Seq(kb1, kb2)), TokenBlocking.purge(tokenBlocksAll, params.purgeSmooth))

  val nameAttrs1: Seq[String] = AttributeStats.top(stats(0), relation = false, params.k)
  val nameAttrs2: Seq[String] = AttributeStats.top(stats(1), relation = false, params.k)
  val topRels1: Seq[String] = AttributeStats.top(stats(0), relation = true, params.N)
  val topRels2: Seq[String] = AttributeStats.top(stats(1), relation = true, params.N)

  val names1: DataFrame = NameBlocking.names(kb1, nameAttrs1)  // (eid, name)
  val names2: DataFrame = NameBlocking.names(kb2, nameAttrs2)

  /** B_N: (name, n1, n2, comparisons). */
  val nameBlocks: DataFrame = NameBlocking.blocks(names1, names2)

  /** B_T after Block Purging. */
  val tokenBlocks: DataFrame = purged

  /** (e1, e2): every pair that shares a block of B_N or of the purged B_T. */
  val candidatePairs: DataFrame =
    NameBlocking.candidatePairs(names1, names2)
      .union(TokenBlocking.candidatePairs(tokens1, tokens2, tokenBlocks))
      .distinct()

  /** Releases the unpurged B_T and the tokens and waits until they are gone. */
  def unpersist(): Unit = Seq(tokenBlocksAll, tokens1, tokens2).foreach(_.unpersist(blocking = true))
}
