package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.kb.Datasets
import repro.report.Tables

/** spark-submit entrypoint reproducing one of the paper's tables over the
  * four dataset presets: I (dataset statistics), II (block statistics) or
  * III (matching quality of MinoanER vs the baselines).
  *
  * Usage: spark-submit --class repro.jobs.TablesJob <jar> <1|2|3> [scaleFactor]
  */
object TablesJob {

  private val Usage = "usage: TablesJob <1|2|3> [scaleFactor]"

  def main(args: Array[String]): Unit = {
    val tables = Set("1", "2", "3")
    val (table, sf) = args match {
      case Array(t) if tables(t)                                   => (t, 1.0)
      case Array(t, sf) if tables(t) && sf.toDoubleOption.nonEmpty => (t, sf.toDouble)
      case _ =>
        System.err.println(Usage)
        sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"minoaner-table$table")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.log.level", "WARN")
      .getOrCreate()
    val cfgs = Datasets.all.map(_.scaled(sf))
    try println(table match {
      case "1" => Tables.table1(spark, cfgs)
      case "2" => Tables.table2(cfgs.map(Tables.table2Row(spark, _)))
      case "3" => Tables.table3(cfgs.map(Tables.table3Row(spark, _)))
    })
    finally spark.stop()
  }
}
