package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{lit, max, min, pmod, xxhash64}

import repro.core._
import repro.exp.OptimizationExperiment
import repro.lake.Transformations
import repro.opt.{CostModel, OptProblem, OptRet, OptSolution, Preprocess}
import repro.stats.StatsCatalog

/** Wraps each call into one of the program's layers; the traced variant
  * opens a span around it.
  */
trait Layers {
  def apply[A](layer: String)(f: => A): A
}

object Layers {
  val untraced: Layers = new Layers { def apply[A](layer: String)(f: => A): A = f }
}

/** A deletion plan and everything that led to it. */
final case class Plan(run: R2D2Run, dfs: Map[String, DataFrame], problem: OptProblem, solution: OptSolution) {
  def graph: ContainmentGraph = run.containmentGraph
  def deleted: Set[String] = problem.nodes.map(_.name).toSet -- solution.retained
}

/** The program's layers called in the order `R2D2.run` uses them, followed
  * by §5.1 pre-processing and OPT-RET with the parameters of
  * `OptimizationExperiment` (Table 7).
  */
object Chain {

  val Layers: Seq[String] = Seq("stats", "sgb", "mmp", "clp", "opt")
  val clpConfig: CLPConfig = CLPConfig()

  def plan(datasets: Seq[(String, DataFrame)], known: Edge => Boolean, seed: Long, layer: Layers): Plan = {
    val (flat, schemas, catalog) = layer("stats") {
      val flat = datasets.map { case (n, df) => n -> StatsCatalog.flatten(df) }
      val schemas = flat.map { case (n, df) => n -> SchemaSet.fromStruct(df.schema) }
      val catalog = new StatsCatalog
      flat.foreach { case (n, df) => catalog.ingest(n, df) }
      (flat.toMap, schemas, catalog)
    }
    val sgb = layer("sgb")(SGB.build(schemas))
    val mmp = layer("mmp")(MMP.prune(sgb.graph, catalog(_)))
    val schemaMap = schemas.toMap
    val clp = layer("clp")(CLP.prune(mmp.graph, flat(_), schemaMap, clpConfig))
    val run = R2D2Run(schemaMap, catalog, sgb, mmp, clp)
    val (problem, solution) = layer("opt")(optimize(run.containmentGraph, catalog, known, seed))
    Plan(run, flat, problem, solution)
  }

  def optimize(g: ContainmentGraph, catalog: StatsCatalog, known: Edge => Boolean, seed: Long): (OptProblem, OptSolution) = {
    val names = g.nodes.toSeq.sorted
    val problem = Preprocess.buildProblem(
      g,
      names.map(n => n -> catalog(n).sizeBytes.toDouble).toMap,
      names.map(n => n -> catalog(n).rowCount).toMap,
      known,
      accesses = Preprocess.powerLaw(names, seed, xMin = 0.02),
      maintenance = Preprocess.powerLaw(names, seed + 1, xMin = OptimizationExperiment.WeeksPerMonth),
      cm = CostModel.azureHotLike,
      latencyThreshold = 600.0,
    )
    (problem, OptRet.solve(problem))
  }
}

/** One §7.1 update with its input already materialised. */
final case class Update(kind: String, target: String, df: Option[DataFrame], source: Option[String])

/** Seeded stream of §7.1 updates against an evolving `R2D2State`.
  *
  * The stream models a lake whose raw (root) tables take the writes and
  * whose analysts add and drop derived tables. Each block of updates
  * targets one root, round-robin over the lake's roots: `rowsAdded` appends
  * 2% novel in-range rows to it (`Transformations.addRows`), `rowsRemoved`
  * drops a seeded hash-chosen 2% of its rows, `addDataset` adds a seeded
  * hash-chosen half of it and `deleteDataset` drops the dataset added in
  * the same block. Hash-chosen rows never include a column's extremes, so
  * ranges stay the same, MMP cannot decide and an update's cost is its CLP
  * probes rather than whichever extreme a random row happened to hold.
  *
  * A block holds the kinds in fixed shares (`Block`), shuffled by the seed
  * with the add before the delete, so whole blocks keep the shares exact and
  * the table set stable. Inputs are built and cached before the update is
  * timed.
  */
final class UpdateStream(spark: SparkSession, seed: Long, roots: Seq[String]) {
  import UpdateStream._

  private val rng = new Random(seed * 31 + 7)
  private var block = List.empty[String]
  private var blocks = 0
  private var root = roots.head
  private var added = List.empty[String]
  private var counter = 0

  /** True at a block boundary: stopping here keeps the kind shares exact. */
  def atBlockStart: Boolean = block.isEmpty

  private def nextKind(): String = {
    if (block.isEmpty) {
      root = roots(blocks % roots.size)
      blocks += 1
      val b = rng.shuffle(Block).toVector
      val (a, d) = (b.indexOf("addDataset"), b.indexOf("deleteDataset"))
      block = (if (d < a) b.updated(a, "deleteDataset").updated(d, "addDataset") else b).toList
    }
    val k = block.head
    block = block.tail
    k
  }

  def next(st: R2D2State): Update = nextKind() match {
    case "addDataset" =>
      counter += 1
      val name = s"$root-upd$counter"
      added ::= name
      Update("addDataset", name, Some(materialise(sample(st.dfs(root), 2))), Some(root))
    case "deleteDataset" =>
      val target = added.head
      added = added.tail
      Update("deleteDataset", target, None, None)
    case "rowsAdded" =>
      val df = st.dfs(root)
      val k = math.max(1, (df.count() * 0.02).toInt)
      Update("rowsAdded", root, Some(materialise(Transformations.addRows(spark, df, k, rng))), None)
    case "rowsRemoved" =>
      Update("rowsRemoved", root, Some(materialise(sample(st.dfs(root), 50))), None)
  }

  /** Rows whose seeded hash is not 0 mod `k` (about 1 − 1/k of them),
    * plus every row that holds a column's minimum or maximum, so that the
    * column ranges MMP compares stay exactly the same.
    */
  private def sample(df: DataFrame, k: Int): DataFrame = {
    val cols = df.columns.toSeq.map(StatsCatalog.qcol)
    val aggs = cols.flatMap(c => Seq(min(c), max(c)))
    val ext = df.agg(aggs.head, aggs.tail: _*).collect()(0)
    val extreme = cols.zipWithIndex.flatMap { case (c, i) =>
      Seq(ext.get(2 * i), ext.get(2 * i + 1)).filter(_ != null).map(v => c === lit(v))
    }.foldLeft(lit(false))(_ || _)
    df.where(pmod(xxhash64(lit(rng.nextLong()) +: cols: _*), lit(k)) =!= 0 || extreme)
  }
}

object UpdateStream {

  /** One block: `rowsRemoved` twice, every other kind once. */
  val Block: List[String] = List("rowsRemoved", "rowsRemoved", "rowsAdded", "addDataset", "deleteDataset")
  val Kinds: Seq[String] = Block.distinct

  def materialise(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    c
  }

  /** Apply one update; returns the new state and the datasets examined. */
  def apply(st: R2D2State, u: Update): (R2D2State, Long) = u.kind match {
    case "addDataset"    => DynamicUpdates.addDataset(st, u.target, u.df.get)
    case "rowsAdded"     => DynamicUpdates.rowsAdded(st, u.target, u.df.get)
    case "rowsRemoved"   => DynamicUpdates.rowsRemoved(st, u.target, u.df.get)
    case "deleteDataset" => (DynamicUpdates.deleteDataset(st, u.target), 0L)
  }
}
