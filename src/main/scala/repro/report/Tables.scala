package repro.report

import org.apache.spark.sql.SparkSession
import repro.baseline._
import repro.core._
import repro.kb._

/** Builders for the paper's three evaluation tables.
  *
  * `table2Row`/`table3Row` compute one dataset's row; `table1`, `table2` and
  * `table3` format a whole table as a multi-line string. The same code backs
  * `jobs/TablesJob` and the bench suites in `bench/`. Paper-reported numbers
  * for comparison live in EXPERIMENTS.md.
  */
object Tables {

  final case class Table2Row(
      name: String,
      bnBlocks: Long, btBlocks: Long,
      bnComparisons: Double, btComparisons: Double,
      cartesian: Double,
      blocking: PRF)

  final case class Table3Row(
      name: String,
      minoaner: PRF,
      perHeuristic: Map[String, Long],
      bsl: BslOutcome,
      sigmaLite: PRF,
      parisLite: PRF)

  // ---------------------------------------------------------------- Table I

  def table1(spark: SparkSession, cfgs: Seq[KBConfig]): String = {
    val sb = new StringBuilder
    sb ++= "TABLE I - DATASET STATISTICS\n"
    sb ++= f"${"dataset"}%-18s ${"E1 ents"}%9s ${"E2 ents"}%9s ${"E1 trip"}%9s ${"E2 trip"}%9s " +
           f"${"E1 tok"}%7s ${"E2 tok"}%7s ${"attrs"}%9s ${"rels"}%7s ${"types"}%9s ${"vocab"}%7s ${"matches"}%8s\n"
    for (cfg <- cfgs) {
      val pair = KBGen.generate(spark, cfg)
      val s1 = DatasetStats.of(pair.kb1)
      val s2 = DatasetStats.of(pair.kb2)
      val attrs = s"${s1.attributes}/${s2.attributes}"
      val rels  = s"${s1.relations}/${s2.relations}"
      val types = s"${s1.types}/${s2.types}"
      val vocab = s"${s1.vocabularies}/${s2.vocabularies}"
      sb ++= f"${cfg.name}%-18s ${s1.entities}%9d ${s2.entities}%9d ${s1.triples}%9d ${s2.triples}%9d " +
             f"${s1.avgTokens}%7.2f ${s2.avgTokens}%7.2f $attrs%9s $rels%7s $types%9s $vocab%7s " +
             f"${pair.groundTruth.count()}%8d\n"
    }
    sb.result()
  }

  // --------------------------------------------------------------- Table II

  def table2Row(spark: SparkSession, cfg: KBConfig): Table2Row = {
    val pair     = KBGen.generate(spark, cfg)
    val blocking = new Blocking(pair.kb1, pair.kb2, MinoanERParams())

    val (bnN, bnC) = TokenBlocking.stats(blocking.nameBlocks)
    val (btN, btC) = TokenBlocking.stats(blocking.tokenBlocks)
    val n1 = KB.numEntities(pair.kb1).toDouble
    val n2 = KB.numEntities(pair.kb2).toDouble
    val blockingPrf = Evaluation.blockingPRF(blocking.candidatePairs, pair.groundTruth, bnC + btC)
    blocking.unpersist()
    Table2Row(cfg.name, bnN, btN, bnC, btC, n1 * n2, blockingPrf)
  }

  def table2(rows: Seq[Table2Row]): String = {
    val sb = new StringBuilder
    sb ++= "TABLE II - BLOCK STATISTICS\n"
    sb ++= f"${"dataset"}%-18s ${"|BN|"}%8s ${"|BT|"}%8s ${"||BN||"}%12s ${"||BT||"}%12s " +
           f"${"|E1|*|E2|"}%12s ${"Prec"}%10s ${"Recall"}%8s ${"F1"}%10s\n"
    for (r <- rows) {
      sb ++= f"${r.name}%-18s ${r.bnBlocks}%8d ${r.btBlocks}%8d ${r.bnComparisons}%12.3e ${r.btComparisons}%12.3e " +
             f"${r.cartesian}%12.3e ${r.blocking.precision * 100}%10.4f ${r.blocking.recall * 100}%8.2f ${r.blocking.f1 * 100}%10.4f\n"
    }
    sb.result()
  }

  // -------------------------------------------------------------- Table III

  def table3Row(spark: SparkSession, cfg: KBConfig): Table3Row = {
    import spark.implicits._
    val pair    = KBGen.generate(spark, cfg)
    val gt      = pair.groundTruth.select("e1", "e2").as[(Long, Long)].collect().toSet
    val res     = MinoanER.resolve(spark, pair.kb1, pair.kb2)
    val matches = res.matches.as[(Long, Long, String)].collect()
    val mPrf    = Evaluation.evaluateOnGtE1(matches.map(m => (m._1, m._2)), gt)
    val perH    = matches.groupMapReduce(_._3)(_ => 1L)(_ + _)

    val sPrf = Evaluation.evaluateOnGtE1(SigmaLite.resolve(pair.kb1, pair.kb2, res), gt)
    res.unpersist()

    val (bslBest, _) = BSL.sweep(spark, pair.kb1, pair.kb2, pair.groundTruth)
    val pPrf = Evaluation.evaluateOnGtE1(ParisLite.resolve(pair.kb1, pair.kb2), gt)

    Table3Row(cfg.name, mPrf, perH, bslBest, sPrf, pPrf)
  }

  def table3(rows: Seq[Table3Row]): String = {
    val sb = new StringBuilder
    sb ++= "TABLE III - MINOANER VS BASELINES (P / R / F1, %)\n"
    sb ++= f"${"dataset"}%-18s ${"method"}%-12s ${"Prec"}%7s ${"Recall"}%7s ${"F1"}%7s   notes\n"
    for (r <- rows) {
      def line(m: String, p: PRF, notes: String = ""): Unit =
        sb ++= f"${r.name}%-18s $m%-12s ${p.precision * 100}%7.2f ${p.recall * 100}%7.2f ${p.f1 * 100}%7.2f   $notes\n"
      line("MinoanER", r.minoaner,
           r.perHeuristic.toSeq.sortBy(_._1).map { case (h, c) => s"$h=$c" }.mkString(" "))
      line("BSL", r.bsl.prf,
           s"best cfg: n=${r.bsl.cfg.n} ${r.bsl.cfg.weighting} ${r.bsl.cfg.measure} t=${r.bsl.cfg.threshold}")
      line("SigmaLite", r.sigmaLite)
      line("ParisLite", r.parisLite)
    }
    sb.result()
  }
}
