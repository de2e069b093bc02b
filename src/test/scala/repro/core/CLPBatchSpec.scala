package repro.core

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{count, lit}

import repro.SparkSpec
import repro.exp.Profiles
import repro.lake.{Lake, LakeGenerator}
import repro.stats.StatsCatalog
import repro.stats.StatsCatalog.qcol

/** CLP's batched execution on the tiny lake: the same refutations as a
  * per-edge reference, re-checkable witnesses, and a job count bounded by
  * the nodes rather than the probes.
  */
class CLPBatchSpec extends SparkSpec {

  lazy val lake: Lake = LakeGenerator.generate(spark, Profiles.tiny())
  lazy val dfs: Map[String, DataFrame] = lake.datasets.map(d => d.name -> d.df).toMap
  lazy val schemas: Map[String, SchemaSet] = lake.schemas.toMap

  /** The MMP survivors — the graph CLP gets inside the pipeline. */
  lazy val graph: ContainmentGraph = {
    val catalog = new StatsCatalog
    lake.datasets.foreach(d => catalog.ingest(d.name, d.df))
    MMP.prune(SGB.build(lake.schemas).graph, catalog(_)).graph
  }

  lazy val result: CLPResult = CLP.prune(graph, dfs, schemas)

  test("batched refutation agrees with the per-edge left-anti reference on Profiles.tiny") {
    for (cfg <- Seq(CLPConfig(), CLPConfig(s = 1, t = 2, seed = 5), CLPConfig(s = 6, t = 50, seed = 5))) {
      val (samples, _) = CLP.draw(graph, dfs, schemas, cfg)
      assert(CLP.refute(samples, dfs, cfg.parallelism).keySet == CLPReference.refuted(samples, dfs), s"cfg=$cfg")
    }
  }

  test("every CLP witness on Profiles.tiny re-checks with one independent query") {
    assert(result.witnesses.nonEmpty, "the tiny lake should give CLP something to prune")
    assert(result.witnesses.keySet == result.pruned)
    for ((e, w) <- result.witnesses) {
      assert(w.columns.contains(w.column) && w.row.get(w.columns.indexOf(w.column)) == w.pivot, s"$e: $w")
      val eq = w.columns.zipWithIndex.map { case (c, i) => qcol(c) <=> lit(w.row.get(i)) }.reduce(_ && _)
      val hits = dfs(e.child).where(eq).select(lit("child").as("side"))
        .union(dfs(e.parent).where(eq).select(lit("parent").as("side")))
        .groupBy("side").agg(count(lit(1)))
        .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
      assert(hits.get("child").exists(_ > 0), s"$e: witness row $w is not in the child")
      assert(!hits.contains("parent"), s"$e: witness row $w is in the parent")
    }
  }

  test("CLP.prune on Profiles.tiny runs at most 3 jobs per node with edges, and fewer jobs than probes") {
    val nodes = graph.edges.flatMap(e => Set(e.parent, e.child)).size
    val sc = spark.sparkContext
    val group = "clp-job-count"
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(j: SparkListenerJobStart): Unit =
        if (Option(j.properties).exists(_.getProperty("spark.jobGroup.id") == group)) jobs.incrementAndGet()
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    sc.setJobGroup(group, "CLP job count")
    val res =
      try CLP.prune(graph, dfs, schemas)
      finally {
        sc.clearJobGroup()
        TestListenerBus.drain(sc)
        sc.removeSparkListener(listener)
      }
    assert(res.graph == result.graph)
    assert(jobs.get > 0 && jobs.get <= 3 * nodes, s"${jobs.get} jobs for $nodes nodes with edges")
    assert(jobs.get < res.probeCount, s"${jobs.get} jobs for ${res.probeCount} probes")
  }
}
