package repro.perfbench

import org.apache.spark.sql.DataFrame

import repro.core._
import repro.opt.{OptProblem, OptSolution}

/** Quality of one containment graph and deletion plan against ground truth.
  *
  * @param missedEdges   ground-truth containment edges absent from the graph
  * @param falseEdges    graph edges whose true containment is < 1
  * @param unsafeDeletes deleted datasets whose reconstruction edge is not a
  *                      ground-truth containment edge
  * @param invalidPlan   deleted datasets whose reconstruction edge is not in
  *                      the graph or whose reconstruction parent is deleted
  * @param reclaimedFrac share of lake bytes deleted through confirmed edges
  */
final case class Quality(
    missedEdges: Int,
    falseEdges: Int,
    unsafeDeletes: Int,
    invalidPlan: Int,
    reclaimedFrac: Double,
)

/** Brute-force ground truth (`repro.core.GroundTruth`) for a set of
  * datasets. Built once per lake state, outside every timed region.
  */
final class Truth(dfs: Map[String, DataFrame]) {
  private val names = dfs.keys.toSeq.sorted
  private val schemaGraph: ContainmentGraph =
    GroundTruth.schemaGraph(names.map(n => n -> SchemaSet.fromStruct(dfs(n).schema)))._1
  private val content: GroundTruth.ContentGT = {
    val data = repro.util.Par.map(names, 4)(n => n -> TableData.fromDf(n, dfs(n))).toMap
    GroundTruth.contentGraph(schemaGraph, data)
  }

  def quality(g: ContainmentGraph, problem: OptProblem, solution: OptSolution): Quality = {
    val truth = content.graph.edges
    val deleted = problem.nodes.map(_.name).toSet -- solution.retained
    val via = deleted.toSeq.map(n => n -> solution.reconstructVia.get(n).map(e => Edge(e.parent, e.child)))
    val sizes = problem.nodes.map(n => n.name -> n.sizeBytes).toMap
    val confirmed = via.collect { case (n, Some(e)) if truth(e) => n }
    Quality(
      missedEdges = truth.count(e => !g.edges.contains(e)),
      falseEdges = g.edges.count(e => !truth(e)),
      unsafeDeletes = via.count { case (_, e) => !e.exists(truth) },
      invalidPlan = via.count { case (_, e) => !e.exists(x => g.edges(x) && !deleted(x.parent)) },
      reclaimedFrac = confirmed.map(sizes).sum / math.max(1.0, sizes.values.sum),
    )
  }
}
