package repro.report

import repro.SparkSpec
import repro.kb.Datasets

class TablesSpec extends SparkSpec {

  test("a Table II row leaves no frame cached") {
    spark.catalog.clearCache()
    val row = Tables.table2Row(spark, Datasets.testScale(Datasets.restaurant))
    assert(row.btBlocks > 0 && row.blocking.recall > 0)
    val left = spark.sparkContext.getRDDStorageInfo
    assert(left.isEmpty, left.map(_.name).mkString("; "))
  }
}
