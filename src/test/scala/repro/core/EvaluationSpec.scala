package repro.core

import repro.SparkSpec

class EvaluationSpec extends SparkSpec {
  import spark.implicits._

  private val gt = Set((0L, 10L), (1L, 11L), (2L, 12L))

  test("perfect prediction scores 1/1/1") {
    val prf = Evaluation.evaluateOnGtE1(gt, gt)
    assert(prf.precision == 1.0 && prf.recall == 1.0 && prf.f1 == 1.0)
  }

  test("precision counts wrong pairs against predictions") {
    val pred = Seq((0L, 10L), (1L, 99L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    assert(prf.tp == 1 && prf.predicted == 2)
    assert(math.abs(prf.precision - 0.5) < 1e-12)
  }

  test("recall counts missed ground-truth pairs") {
    val pred = Seq((0L, 10L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    assert(math.abs(prf.recall - 1.0 / 3) < 1e-12)
  }

  test("f1 is the harmonic mean") {
    val pred = Seq((0L, 10L), (1L, 99L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    val expected = 2 * prf.precision * prf.recall / (prf.precision + prf.recall)
    assert(math.abs(prf.f1 - expected) < 1e-12)
  }

  test("empty prediction yields zero metrics without dividing by zero") {
    val prf = Evaluation.evaluateOnGtE1(Seq.empty, gt)
    assert(prf.precision == 0.0 && prf.recall == 0.0 && prf.f1 == 0.0)
  }

  test("duplicate predictions are counted once") {
    val pred = Seq((0L, 10L), (0L, 10L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    assert(prf.predicted == 1 && prf.tp == 1)
  }

  test("paper-style evaluation ignores predictions outside GT's KB1 entities") {
    val pred = Seq((0L, 10L), (77L, 88L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    assert(prf.predicted == 1 && prf.precision == 1.0)
  }

  test("paper-style evaluation still penalizes wrong matches of GT entities") {
    val pred = Seq((0L, 99L))
    val prf = Evaluation.evaluateOnGtE1(pred, gt)
    assert(prf.predicted == 1 && prf.tp == 0)
  }

  test("blocking PRF uses comparison count as precision denominator") {
    val cands = Seq((0L, 10L), (0L, 11L), (5L, 55L)).toDF("e1", "e2")
    val prf = Evaluation.blockingPRF(cands, gt.toSeq.toDF("e1", "e2"), totalComparisons = 100)
    assert(prf.tp == 1)
    assert(math.abs(prf.precision - 0.01) < 1e-12)
    assert(math.abs(prf.recall - 1.0 / 3) < 1e-12)
  }
}
