package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or, when it is unset, to half of physical memory
  * clamped to 2-8 GB. Broadcast joins are disabled so shuffle/join papers
  * actually exercise the shuffle path at SF~=0.1; re-enable per-query if
  * the paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The session's own setting of `key`, None when it is unset. */
  def setting(key: String): Option[String] = spark.conf.getAll.get(key)

  /** Runs `body` with `key` set to `value` (unset for None), then puts back
    * the session's previous setting.
    */
  def withConf[A](key: String, value: Option[String])(body: => A): A = {
    def put(v: Option[String]): Unit = v.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    val before = setting(key)
    put(value)
    try body finally put(before)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
