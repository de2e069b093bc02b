package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.lake.{Lake, LakeGenerator, LakeProfile}
import repro.stats.StatsCatalog

/** Per-stage edge quality versus the ground-truth containment graph:
  * `correct` = stage ∩ GT, `incorrect` = stage \ GT (containment fraction
  * < 1), `notDetected` = GT \ stage (must be 0 at every R2D2 stage).
  */
final case class StageEval(correct: Int, incorrect: Int, notDetected: Int)

final case class Timings(ingestMs: Long, sgbMs: Long, mmpMs: Long, clpMs: Long, gtMs: Long) {
  def pipelineMs: Long = sgbMs + mmpMs + clpMs
}

/** Everything one lake run produces — shared by all table experiments. */
final case class PipelineOutput(
    lake: Lake,
    catalog: StatsCatalog,
    sgb: SGBResult,
    mmp: MMPResult,
    clp: CLPResult,
    gtSchema: ContainmentGraph,
    gtSchemaOps: Long,
    gt: GroundTruth.ContentGT,
    data: Map[String, TableData],
    timings: Timings,
    clpCfg: CLPConfig,
) {
  def eval(g: ContainmentGraph): StageEval = StageEval(
    correct = g.edges.count(gt.graph.edges.contains),
    incorrect = g.edges.count(e => !gt.graph.edges.contains(e)),
    notDetected = gt.graph.edges.count(e => !g.edges.contains(e)),
  )
  def evalSGB: StageEval = eval(sgb.graph)
  def evalMMP: StageEval = eval(mmp.graph)
  def evalCLP: StageEval = eval(clp.graph)

  /** Re-run only CLP with different (s, t) — used by the Table 6 sweep. */
  def rerunCLP(cfg: CLPConfig): (CLPResult, StageEval) = {
    val byName = lake.byName
    val res = CLP.prune(mmp.graph, byName(_).df, byName(_).schema, cfg)
    (res, eval(res.graph))
  }
}

object PipelineRunner {

  private def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  /** Generate the lake for `profile` and run the full pipeline + ground
    * truth, timing each stage.
    */
  def run(spark: SparkSession, profile: LakeProfile, clpCfg: CLPConfig = CLPConfig()): PipelineOutput = {
    val lake = LakeGenerator.generate(spark, profile)
    runOnLake(spark, lake, clpCfg)
  }

  def runOnLake(spark: SparkSession, lake: Lake, clpCfg: CLPConfig = CLPConfig()): PipelineOutput = {
    val catalog = new StatsCatalog
    val parallelism = spark.sparkContext.defaultParallelism
    val (_, ingestMs) = timed {
      // One independent aggregation job per dataset — submit concurrently.
      val stats = repro.util.Par.map(lake.datasets, parallelism)(d => d.name -> StatsCatalog.compute(d.df))
      stats.foreach { case (n, s) => catalog.put(n, s) }
    }

    val (sgb, sgbMs) = timed(SGB.build(lake.schemas))
    val (mmp, mmpMs) = timed(MMP.prune(sgb.graph, catalog(_)))
    val byName = lake.byName
    val (clp, clpMs) = timed(CLP.prune(mmp.graph, byName(_).df, byName(_).schema, clpCfg))

    // Ground truth (§6.2): brute-force schema graph, then full-content check
    // per schema edge. Timed as one unit — this is the baseline R2D2 beats.
    val ((gtSchemaGraph, gtSchemaOps, gtContent, data), gtMs) = timed {
      val (g, ops) = GroundTruth.schemaGraph(lake.schemas)
      val data = repro.util.Par.map(lake.datasets, parallelism)(d =>
        d.name -> TableData.fromDf(d.name, d.df)).toMap
      val content = GroundTruth.contentGraph(g, data(_))
      (g, ops, content, data)
    }

    PipelineOutput(lake, catalog, sgb, mmp, clp, gtSchemaGraph, gtSchemaOps, gtContent, data,
      Timings(ingestMs, sgbMs, mmpMs, clpMs, gtMs), clpCfg)
  }
}
