package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Table3

/** spark-submit entrypoint reproducing Table 3 (improvement ratio of ASTI
  * over ATEUC per threshold, IC & LT; N/A where ATEUC misses η on some
  * realization).
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar
  * Scale, realizations and ε via REPRO_SCALE / REPRO_REALIZATIONS / REPRO_EPS.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("table3").getOrCreate()
    println(Table3.report(Table3.run(spark)))
    spark.stop()
  }
}
