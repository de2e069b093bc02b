package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types.StructType

import repro.stats.StatsCatalog.qcol

/** Per-edge reference for CLP's refutation: an edge is refuted iff its drawn
  * sample, `left_anti` joined with the parent on `<=>` over the compared
  * columns, is non-empty — one query per edge, as Alg. 3 states it.
  */
object CLPReference {

  def refuted(samples: Seq[ProbeSample], dfs: String => DataFrame): Set[Edge] =
    samples.filter(_.rows.nonEmpty).groupBy(_.probe.edge).collect {
      case (e, ss) if refutes(e, ss, dfs) => e
    }.toSet

  private def refutes(e: Edge, ss: Seq[ProbeSample], dfs: String => DataFrame): Boolean = {
    val compared = ss.head.probe.compared
    val child = dfs(e.child)
    val spark = child.sparkSession
    val schema = StructType(compared.map(c => child.schema(c)))
    val sample = spark.createDataFrame(ss.flatMap(_.rows).asJava, schema).alias("l")
    val parent = dfs(e.parent).select(compared.map(qcol): _*).alias("r")
    val cond = compared.map(c => col(s"l.`$c`") <=> col(s"r.`$c`")).foldLeft(lit(true))(_ && _)
    !sample.join(parent, cond, "left_anti").isEmpty
  }
}
