package repro.core

import scala.collection.immutable.BitSet
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}

import repro.stats.StatsCatalog.qcol
import repro.util.Par

/** Parameters of content-level pruning (§4.3, §6.6).
  *
  * @param s           max number of search columns to sample WHERE-filters from
  * @param t           max rows sampled from the child per probe
  * @param seed        RNG seed; probes are deterministic in (seed, edge)
  * @param parallelism how many per-child or per-parent queries run at once
  */
final case class CLPConfig(
    s: Int = 4,
    t: Int = 10,
    seed: Long = 42,
    parallelism: Int = 8,
)

/** Why CLP pruned an edge: the probe on `column` = `pivot` drew `row` (the
  * child's values of `columns`, the compared common columns) and no parent
  * row is `<=>`-equal to it on those columns.
  */
final case class CLPWitness(column: String, pivot: Any, columns: Seq[String], row: Row)

/** Result of content-level pruning.
  *
  * @param witnesses   one witness per pruned edge
  * @param probeCount  number of WHERE-filter probes executed (probes whose
  *                    search column holds a non-null value)
  * @param sampledRows distinct child rows drawn, summed over children
  */
final case class CLPResult(
    graph: ContainmentGraph,
    witnesses: Map[Edge, CLPWitness],
    probeCount: Long,
    sampledRows: Long,
) {
  def pruned: Set[Edge] = witnesses.keySet
}

/** One Alg. 3 probe of `edge`: the child rows whose search `column` holds a
  * seeded pivot, compared with the parent on `compared` — the common columns
  * of equal type in child and parent.
  */
final case class Probe(edge: Edge, column: String, seed: Long, compared: Seq[String])

/** What a probe drew: its pivot and at most `t` child rows with that value,
  * projected onto `probe.compared`.
  */
final case class ProbeSample(probe: Probe, pivot: Any, rows: Seq[Row])

/** Algorithm 3 (CLP): for each surviving edge x → y, sample up to `t` rows of
  * the child y via a WHERE filter on each of `s` sampled common columns, and
  * check the sample against the parent x over **all** common columns (the
  * full row tuple — column-wise set containment is not enough, paper
  * footnote 6). Any sampled row missing from x disproves `y ⊆ x` and the
  * edge is pruned. True containment edges can never be pruned: every row of
  * y, sampled or not, is present in x.
  *
  * Execution is batched over the whole graph in two concurrent rounds, so
  * the Spark job count is O(children + parents), never per edge or probe:
  * [[draw]] runs one query per child for all of its probes, and [[refute]]
  * runs one join per parent for the samples of all of its out-edges.
  */
object CLP {

  def prune(
      graph: ContainmentGraph,
      dfs: String => DataFrame,
      schemas: String => SchemaSet,
      cfg: CLPConfig = CLPConfig(),
  ): CLPResult = {
    val (samples, sampledRows) = draw(graph, dfs, schemas, cfg)
    val witnesses = refute(samples, dfs, cfg.parallelism)
    CLPResult(graph.removeEdges(witnesses.keys), witnesses, samples.size.toLong, sampledRows)
  }

  /** The probes of one edge: up to `s` search columns from the per-edge
    * seeded RNG, each with its own seed for the pivot and row ranking.
    */
  private def probes(e: Edge, parentDf: DataFrame, childDf: DataFrame, parentSchema: SchemaSet,
      childSchema: SchemaSet, cfg: CLPConfig): Seq[Probe] = {
    val common = childSchema.tokens.intersect(parentSchema.tokens).toSeq.sorted
    if (common.isEmpty) return Nil
    val childTypes = childDf.schema.map(f => f.name -> f.dataType).toMap
    val parentTypes = parentDf.schema.map(f => f.name -> f.dataType).toMap
    // Comparing fewer columns only finds more matches, so leaving out a
    // column whose type differs can never refute a true containment.
    val compared = common.filter(c => childTypes.get(c).exists(parentTypes.get(c).contains))
    val rng = new scala.util.Random(cfg.seed ^ (e.parent + "→" + e.child).hashCode.toLong)
    rng.shuffle(common).take(math.max(1, cfg.s)).map(c => Probe(e, c, rng.nextLong(), compared))
  }

  /** Round 1: one query per child draws the samples of all its probes.
    * Returns the samples of the probes that found a pivot, and the number of
    * distinct child rows drawn.
    */
  def draw(
      graph: ContainmentGraph,
      dfs: String => DataFrame,
      schemas: String => SchemaSet,
      cfg: CLPConfig,
  ): (Seq[ProbeSample], Long) = {
    val byChild = graph.edges.toSeq.sortBy(e => (e.child, e.parent)).groupBy(_.child).toSeq.sortBy(_._1)
    val drawn = Par.map(byChild, cfg.parallelism) { case (child, edges) =>
      val ps = edges.flatMap(e => probes(e, dfs(e.parent), dfs(child), schemas(e.parent), schemas(child), cfg))
      if (ps.isEmpty) (Nil, 0) else drawChild(dfs(child), ps, cfg.t)
    }
    (drawn.flatMap(_._1), drawn.map(_._2.toLong).sum)
  }

  /** A probe's pivot is the value `v` of its column with the least
    * `xxhash64(seed, v)` — a seeded draw over the distinct non-null values —
    * and its sample is the `t` rows with that value that rank first by
    * `xxhash64(seed, row)`. Both keys are per row, so one pass keeps, per
    * probe, the least pivot key seen and the best `t` rows holding it.
    */
  private def drawChild(df: DataFrame, ps: Seq[Probe], t: Int): (Seq[ProbeSample], Int) = {
    val cols = df.columns.toSeq
    val n = cols.size
    val pivotAt = ps.map(p => cols.indexOf(p.column)).toArray
    val keys = ps.flatMap(p => Seq(
      xxhash64(lit(p.seed), qcol(p.column)),
      xxhash64(lit(~p.seed) +: cols.map(qcol): _*),
    ))
    val perPartition = df.select(cols.map(qcol) ++ keys: _*).rdd.mapPartitions { it =>
      val best = Array.fill(pivotAt.length)(Top.empty)
      it.foreach { r =>
        var i = 0
        while (i < pivotAt.length) {
          if (!r.isNullAt(pivotAt(i))) best(i) = best(i).offer(r.getLong(n + 2 * i), r.getLong(n + 2 * i + 1), r, n, t)
          i += 1
        }
      }
      Iterator(best)
    }.collect()
    val tops = ps.indices.map(i => perPartition.map(_(i)).foldLeft(Top.empty)(_.merge(_, t)))
    val samples = ps.zip(tops).collect { case (p, top) if top.rows.nonEmpty =>
      val rows = top.rows.map(_._2)
      val at = p.compared.map(cols.indexOf(_))
      ProbeSample(p, rows.head.get(cols.indexOf(p.column)), rows.map(r => Row.fromSeq(at.map(r.get))))
    }
    (samples, tops.flatMap(_.rows.map(_._2)).distinct.size)
  }

  /** Round 2: one query per parent finds which sample rows of its out-edges
    * have a `<=>`-equal parent row; an edge with an unmatched row is refuted,
    * and that row is its witness.
    */
  def refute(samples: Seq[ProbeSample], dfs: String => DataFrame, parallelism: Int): Map[Edge, CLPWitness] = {
    val byParent = samples.filter(_.rows.nonEmpty).groupBy(_.probe.edge.parent).toSeq.sortBy(_._1)
    Par.map(byParent, parallelism) { case (parent, ss) => refuteParent(dfs(parent), ss) }.flatten.toMap
  }

  /** The parent is joined once, as one row per distinct compared-column set
    * of its out-edges with the columns outside the set nulled; sample rows
    * are padded the same way, so `<=>` on every column plus the set id
    * compares exactly each edge's common columns.
    */
  private def refuteParent(parentDf: DataFrame, ss: Seq[ProbeSample]): Seq[(Edge, CLPWitness)] = {
    val types = parentDf.schema.map(f => f.name -> f.dataType).toMap
    val colSets = ss.map(_.probe.compared).distinct
    val setId = colSets.zipWithIndex.toMap
    val cols = colSets.flatten.distinct.sorted
    val fields = cols.indices.map(i => s"c$i")

    val padded = colSets.map { cs =>
      val vals = cols.map(c => if (cs.contains(c)) qcol(c) else lit(null).cast(types(c)))
      struct(lit(setId(cs)).as("k") +: vals.zip(fields).map { case (v, f) => v.as(f) }: _*)
    }
    val parentSide = parentDf.select(explode(array(padded: _*)).as("p")).select("p.*").alias("p")

    val rows = for (s <- ss; r <- s.rows) yield (s, r)
    val sampleRows = rows.zipWithIndex.map { case ((s, r), sid) =>
      val at = s.probe.compared.indexOf(_: String)
      Row.fromSeq(setId(s.probe.compared) +: sid +: cols.map(c => if (at(c) < 0) null else r.get(at(c))))
    }
    val schema = StructType(StructField("k", IntegerType) +: StructField("sid", IntegerType) +:
      cols.zip(fields).map { case (c, f) => StructField(f, types(c)) })
    val sampleSide = parentDf.sparkSession.createDataFrame(sampleRows.asJava, schema).alias("s")

    val cond = (col("p.k") === col("s.k")) +: fields.map(f => col(s"p.$f") <=> col(s"s.$f"))
    val matched = parentSide.join(broadcast(sampleSide), cond.reduce(_ && _)).select(col("s.sid"))
      .rdd.mapPartitions(it => Iterator(BitSet(it.map(_.getInt(0)).toSeq: _*)))
      .fold(BitSet.empty)(_ | _)

    rows.indices.filterNot(matched).map(rows).groupBy(_._1.probe.edge).toSeq.map { case (e, missing) =>
      val (s, r) = missing.head
      e -> CLPWitness(s.probe.column, s.pivot, s.probe.compared, r)
    }
  }

  /** Per-probe draw state: the least pivot key seen and the best (least
    * row key) at most `t` rows holding it, sorted by row key.
    */
  private final case class Top(pivotKey: Long, rows: Vector[(Long, Row)]) {
    def offer(pk: Long, rk: Long, r: Row, n: Int, t: Int): Top =
      if (rows.isEmpty || pk < pivotKey) Top(pk, Vector(rk -> Row.fromSeq(r.toSeq.take(n))))
      else if (pk > pivotKey || (rows.size >= t && rk >= rows.last._1)) this
      else Top(pk, (rows :+ (rk -> Row.fromSeq(r.toSeq.take(n)))).sortBy(_._1).take(t))

    def merge(o: Top, t: Int): Top =
      if (o.rows.isEmpty || (rows.nonEmpty && pivotKey < o.pivotKey)) this
      else if (rows.isEmpty || o.pivotKey < pivotKey) o
      else Top(pivotKey, (rows ++ o.rows).sortBy(_._1).take(t))
  }

  private object Top {
    val empty: Top = Top(0L, Vector.empty)
  }
}
