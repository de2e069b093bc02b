package repro.perfbench

import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.exp.Profiles
import repro.lake.{Lake, LakeGenerator, LakeProfile}
import repro.opt.Preprocess
import repro.stats.StatsCatalog

/** Lake → deletion-plan benchmark.
  *
  * {{{
  * Main --workload lake-c1 --seed 1 --seconds 30 --trace 0 --out run.json [--smoke]
  * }}}
  *
  * One run: set the lake up `SetupReps` times (the last one is kept), then a
  * closed loop of whole-lake plans (stats → SGB → MMP → CLP → Preprocess →
  * OPT-RET) for the window, each checked against brute-force ground truth.
  * `--trace 1` spends half the window on plans, alternating untraced and
  * traced ones, and the rest on traced seeded §7.1 updates against the last
  * plan's state. Every metric is printed with its unit; the full document
  * goes to `--out`.
  * `--smoke` runs the same steps on `Profiles.tiny` and also checks that the
  * layer chain finds the same edges as `R2D2.run`.
  */
object Main {

  val SetupReps = 3

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Option[String], smoke: Boolean)

  def parse(argv: Array[String]): Args = {
    val kv = argv.sliding(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      kv.get("out"), argv.contains("--smoke"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workloads(args.workload)
    val nproc = Runtime.getRuntime.availableProcessors
    val confs = ListMap(
      "spark.sql.shuffle.partitions" -> "16",
      "spark.sql.autoBroadcastJoinThreshold" -> "-1",
      "spark.ui.enabled" -> "false",
    )
    val builder = SparkSession.builder.master(s"local[$nproc]").appName(s"perfbench-${w.name}")
    confs.foreach { case (k, v) => builder.config(k, v) }
    val spark = builder.getOrCreate()
    val env = Json.obj(
      "workload" -> w.name, "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace,
      "smoke" -> args.smoke, "scale" -> (if (args.smoke) 1.0 else w.scale), "nproc" -> nproc,
      "master" -> spark.sparkContext.master, "sql_confs" -> confs,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jvm_flags" -> java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq
        .map(_.toString).filter(a => a.startsWith("-X") && !a.startsWith("-Xmx")),
      "spark_version" -> spark.version, "java_version" -> System.getProperty("java.version"),
    )
    val code =
      try {
        val r = new Runner(spark, w, args).run()
        val doc = env ++ r.doc
        args.out.foreach(p => Files.writeString(Paths.get(p), Json.render(doc)))
        r.print()
        0
      } finally spark.stop()
    sys.exit(code)
  }
}

/** Metric name → (value, unit). */
final class Metrics {
  val values: mutable.LinkedHashMap[String, (Double, String)] = mutable.LinkedHashMap.empty
  def apply(name: String, unit: String, v: Double): Unit = values(name) = (v, unit)
}

object Stats {
  /** Nearest-rank percentile of a non-empty sample. */
  def pct(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1)))
  }
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
  def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)
}

final case class UpdateSample(kind: String, ms: Double, examined: Long, jobs: Int)

final class Runner(spark: SparkSession, w: Workload, args: Main.Args) {
  import Stats._

  private val sc = spark.sparkContext
  private val tracer = new Tracer(sc)
  private val profile: LakeProfile = if (args.smoke) Profiles.tiny(args.seed) else w.profile(args.seed)
  private val seed = args.seed

  private val setupS = ArrayBuffer.empty[Double]
  private val planS = ArrayBuffer.empty[Double]
  private val planTracedS = ArrayBuffer.empty[Double]
  private val layerSamples = ArrayBuffer.empty[collection.Map[String, Double]]
  private val updates = ArrayBuffer.empty[UpdateSample]
  private val errors = ArrayBuffer.empty[String]
  private val edgeSets = mutable.Set.empty[Set[Edge]]
  private var attempted = 0
  private var failed = 0
  private var unattributed = 0
  private var gateOk = true

  val metrics = new Metrics
  var doc: ListMap[String, Any] = ListMap.empty

  private def now: Double = System.nanoTime() / 1e9
  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  def run(): Runner = {
    // Set-up: generate and cache the lake several times; keep the last one.
    var lake: Lake = null
    for (_ <- 0 until Main.SetupReps) {
      if (lake != null) lake.unpersist()
      val (l, ms) = timed(LakeGenerator.generate(spark, profile))
      lake = l
      setupS += ms / 1000
    }
    val datasets = lake.datasets.map(d => d.name -> d.df)
    val truth = new Truth(datasets.map { case (n, df) => n -> StatsCatalog.flatten(df) }.toMap)

    // Untraced runs spend the whole window on plans; traced runs spend half
    // on plans and the rest on updates.
    val start = now
    val (last, lastQ) = plans(datasets, Preprocess.provenanceKnown(lake.provenance), truth,
      start + (if (args.trace) args.seconds / 2 else args.seconds))
    val cachedBytes = sc.getRDDStorageInfo.map(_.memSize).sum.toDouble
    val lakeRows = lake.datasets.map(_.df.count()).sum
    val dynQ = if (args.trace) Some(updatePhase(lake, last, start + args.seconds)) else None
    val measuredS = now - start

    val smokeOk =
      if (!args.smoke) None
      else Some(edgeSets.forall(_ == R2D2.run(datasets).containmentGraph.edges))
    if (smokeOk.contains(false)) { gateOk = false; errors += "smoke: layer chain edges differ from R2D2.run" }

    val m = metrics
    m("setup_s", "s", median(setupS.toSeq))
    m("plan_s", "s", median(planS.toSeq.drop(1)))
    m("plan.first_s", "s", planS.head)
    m("cached_bytes_per_row", "B/row", cachedBytes / lakeRows)
    m("cached_mb", "MB", cachedBytes / 1e6)
    m("missed_edges", "count", lastQ.missedEdges.toDouble)
    m("false_edges", "count", lastQ.falseEdges.toDouble)
    m("unsafe_deletes", "count", lastQ.unsafeDeletes.toDouble)
    m("reclaimed_frac", "ratio", lastQ.reclaimedFrac)
    m("failed_frac", "ratio", failed.toDouble / attempted)
    if (args.trace) {
      for (k <- layerSamples.head.keys) m(k, LayerUnits(k), median(layerSamples.map(_(k)).toSeq))
      m("trace.overhead_frac", "ratio", median(planTracedS.toSeq) / median(planS.toSeq.drop(1)) - 1)
      m("unattributed_jobs", "count", unattributed.toDouble)
      val ums = updates.map(_.ms).toSeq
      m("update_ms_mean", "ms", ums.sum / ums.size)
      m("update_ms_p50", "ms", pct(ums, 50))
      m("update_ms_p90", "ms", pct(ums, 90))
      m("dyn.updates", "count", updates.size.toDouble)
      m("dyn.examined", "count", updates.map(_.examined).sum.toDouble / updates.size)
      m("dyn.jobs_per_update", "count", updates.map(_.jobs).sum.toDouble / updates.size)
      for (k <- UpdateStream.Kinds)
        m(s"dyn.$k.ms_p50", "ms", medianOr0(updates.filter(_.kind == k).map(_.ms).toSeq))
      m("dyn.missed_edges", "count", dynQ.get.missedEdges.toDouble)
      m("dyn.false_edges", "count", dynQ.get.falseEdges.toDouble)
    }

    doc = Json.obj(
      "profile" -> Json.obj("name" -> profile.name, "seed" -> profile.seed, "tables" -> lake.datasets.size,
        "rows" -> lakeRows),
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "measured_s" -> measuredS,
      "plans" -> Json.obj("untraced_s" -> planS, "traced_s" -> planTracedS, "distinct_edge_sets" -> edgeSets.size,
        "sgb_edges" -> last.run.sgb.graph.edgeCount, "mmp_edges" -> last.run.mmp.graph.edgeCount,
        "clp_edges" -> last.run.clp.graph.edgeCount, "clp_probes" -> last.run.clp.probeCount),
      "setup_s_samples" -> setupS,
      "updates" -> updates.map(u => Json.obj("kind" -> u.kind, "ms" -> u.ms, "examined" -> u.examined, "jobs" -> u.jobs)),
      "repeatable_counts" -> repeatableCounts,
      "smoke_same_edges_as_r2d2_run" -> smokeOk,
      "errors" -> errors,
      "metrics" -> ListMap(m.values.toSeq.map { case (k, (v, u)) => k -> Json.obj("value" -> v, "unit" -> u) }: _*),
      "spans" -> (if (args.trace) tracer.dump else Nil),
    )
    this
  }

  /** Closed loop of whole-lake plans until `end`, at least two (three when
    * traced). The first one warms the JVM up and is reported on its own;
    * traced runs trace every other plan after it. Every plan is checked
    * against ground truth. Returns the last plan and its quality.
    */
  private def plans(datasets: Seq[(String, DataFrame)], known: Edge => Boolean, truth: Truth, end: Double): (Plan, Quality) = {
    var last: (Plan, Quality) = null
    var i = 0
    var lastS = 0.0
    // Start another plan only if it is likely to end near `end`.
    while (i < (if (args.trace) 3 else 2) || now + 0.5 * lastS < end) {
      val traced = args.trace && i > 0 && i % 2 == 0
      attempted += 1
      try {
        val (p, ms) =
          if (traced) {
            val (p, rt) = tracer.region("plan")(l => Chain.plan(datasets, known, seed, l))
            layerSamples += planLayers(p, rt)
            unattributed += rt.unattributed.size
            (p, rt.root.ms)
          } else timed(Chain.plan(datasets, known, seed, Layers.untraced))
        lastS = ms / 1000
        (if (traced) planTracedS else planS) += lastS
        val q = truth.quality(p.graph, p.problem, p.solution)
        if (q.missedEdges > 0 || q.invalidPlan > 0) {
          failed += 1
          errors += s"plan $i: missed_edges=${q.missedEdges} invalid_plan=${q.invalidPlan}"
        }
        edgeSets += p.graph.edges
        last = (p, q)
      } catch {
        case NonFatal(e) => failed += 1; errors += s"plan $i: $e"
      }
      i += 1
    }
    require(last != null, s"no plan completed: ${errors.mkString("; ")}")
    last
  }

  /** Traced §7.1 updates against the last plan's state until `end`, in
    * whole blocks (at least one) so every kind keeps its share. Returns the quality of the
    * final graph and of a plan made on it: its missed edges are the §7.1
    * defect and are reported, not gated; an invalid plan fails the run.
    */
  private def updatePhase(lake: Lake, last: Plan, end: Double): Quality = {
    var st = R2D2State.fromRun(last.dfs, last.run)
    val cached = mutable.Map.empty[String, DataFrame] ++ lake.datasets.map(d => d.name -> d.df)
    var provenance = lake.provenance
    val stream = new UpdateStream(spark, seed, lake.datasets.filter(_.kind == "root").map(_.name))
    var j = 0
    var blockStart = now
    var lastBlockS = 0.0
    // At least one block; start another only if it is likely to end near `end`.
    while (j == 0 || !stream.atBlockStart || now + 0.5 * lastBlockS < end) {
      val u = stream.next(st)
      attempted += 1
      try {
        val (r, rt) = tracer.region("update")(l => l("dyn")(UpdateStream(st, u)))
        unattributed += rt.unattributed.size
        updates += UpdateSample(u.kind, rt.root.ms, r._2, rt.jobsOf("dyn").size)
        st = r._1
        u.kind match {
          case "addDataset" =>
            cached(u.target) = u.df.get
            provenance :+= (u.source.get -> u.target)
          case "deleteDataset" => cached.remove(u.target).foreach(_.unpersist())
          case _               => cached.put(u.target, u.df.get).foreach(_.unpersist())
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          errors += s"update $j (${u.kind} ${u.target}): $e"
          u.df.foreach(_.unpersist())
      }
      j += 1
      if (stream.atBlockStart) {
        lastBlockS = now - blockStart
        blockStart = now
      }
    }
    val (problem, solution) = Chain.optimize(st.graph, st.catalog, Preprocess.provenanceKnown(provenance), seed)
    val q = new Truth(st.dfs).quality(st.graph, problem, solution)
    if (q.invalidPlan > 0) {
      gateOk = false
      errors += s"final-state plan: invalid_plan=${q.invalidPlan}"
    }
    q
  }

  def correct: Boolean = failed == 0 && gateOk

  /** Per-layer count metrics whose traced samples were all identical. */
  private def repeatableCounts: Seq[String] =
    layerSamples.headOption.map(_.keys.toSeq).getOrElse(Nil).filter(k => LayerUnits(k) == "count")
      .filter(k => layerSamples.map(_(k)).distinct.size == 1)

  /** Per-layer metrics of one traced plan. */
  private def planLayers(p: Plan, rt: RegionTrace): collection.Map[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    def span(l: String) = rt.layer(l).head
    def jobMs(js: Seq[JobSpan], s: Span) = Tracer.unionMs(js.map(j => (j.startMs.toDouble, j.endMs.toDouble)), s.startMs, s.endMs)
    for (l <- Chain.Layers) {
      val s = span(l)
      val js = rt.jobsOf(l)
      out(s"$l.ms") = s.ms
      out(s"$l.jobs") = js.size
      out(s"$l.tasks") = js.map(_.tasks).sum
      out(s"$l.task_ms") = js.map(_.taskMs).sum
      out(s"$l.rows_read") = js.map(_.rowsRead).sum
      out(s"$l.job_ms") = jobMs(js, s)
      out(s"$l.self_ms") = s.ms - out(s"$l.job_ms")
    }
    val r = p.run
    out("sgb.ops") = r.sgb.totalOps(r.schemas.size)
    out("sgb.edges_out") = r.sgb.graph.edgeCount
    out("mmp.edges_out") = r.mmp.graph.edgeCount
    out("mmp.pruned_frac") = r.mmp.pruned.size.toDouble / math.max(1, r.sgb.graph.edgeCount)
    out("clp.probes") = r.clp.probeCount
    out("clp.jobs_per_probe") = out("clp.jobs") / math.max(1L, r.clp.probeCount)
    out("clp.idle_ms") = out("clp.self_ms")
    val clpSpan = span("clp")
    val clpJobs = rt.jobsOf("clp")
    val (pivot, rest) = clpJobs.partition(j => j.callSite.startsWith("collect at CLP.scala"))
    val (probe, other) = rest.partition(j => j.callSite.startsWith("isEmpty at CLP.scala"))
    out("clp.pivot_jobs") = pivot.size
    out("clp.pivot_ms") = jobMs(pivot, clpSpan)
    out("clp.probe_jobs") = probe.size
    out("clp.probe_ms") = jobMs(probe, clpSpan)
    out("clp.other_jobs") = other.size
    out("clp.edges_out") = r.clp.graph.edgeCount
    out("clp.prune_yield") = r.clp.pruned.size.toDouble / math.max(1L, r.clp.probeCount)
    out("opt.edges_in") = p.problem.edges.size
    val comps = ContainmentGraph(p.problem.nodes.map(_.name), p.problem.edges.map(e => Edge(e.parent, e.child))).weakComponents
    // OptRet.solve solves components up to its default bbLimit (24) exactly.
    out("opt.exact_components") = comps.count(_.size <= 24)
    out("opt.greedy_components") = comps.count(_.size > 24)
    out("opt.deleted_nodes") = p.deleted.size
    out("trace.span_cover_frac") = Chain.Layers.map(l => out(s"$l.ms")).sum / rt.root.ms
    out
  }

  def print(): Unit = {
    val width = metrics.values.keys.map(_.length).max
    for ((k, (v, u)) <- metrics.values) println(s"%-${width}s  %s %s".format(k, v, u))
    if (errors.nonEmpty) println(s"errors: ${errors.mkString("; ")}")
  }
}

object LayerUnits {
  def apply(name: String): String =
    if (name.endsWith("_ms") || name.endsWith(".ms")) "ms"
    else if (name.endsWith("_frac") || name.endsWith("per_probe") || name.endsWith("prune_yield")) "ratio"
    else "count"
}
