package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Table2

/** spark-submit entrypoint reproducing Table 2 (dataset statistics).
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro.jar
  * Scale via REPRO_SCALE.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("table2").getOrCreate()
    println(Table2.report(Table2.run(spark)))
    spark.stop()
  }
}
