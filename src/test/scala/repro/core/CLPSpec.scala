package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, StructField, StructType}

import repro.{SparkSpec, SynthData}
import repro.lake.Transformations
import repro.stats.{NumStats, StatsCatalog}

import scala.util.Random

class CLPSpec extends SparkSpec {

  lazy val li = SynthData.lineitem(spark, sf = 0.0002, seed = 23).cache()
  private def sch(df: DataFrame): SchemaSet = SchemaSet.fromStruct(df.schema)

  private def pruneOne(parent: DataFrame, child: DataFrame, cfg: CLPConfig): CLPResult = {
    val dfs = Map("p" -> parent, "c" -> child)
    CLP.prune(ContainmentGraph(dfs.keys, Seq(Edge("p", "c"))), dfs, dfs.view.mapValues(sch).toMap, cfg)
  }

  private def check(parent: DataFrame, child: DataFrame, cfg: CLPConfig = CLPConfig()): Boolean =
    pruneOne(parent, child, cfg).pruned.nonEmpty

  test("never prunes a WHERE-filter child (true containment)") {
    val child = li.where(col("l_returnflag") === "N").cache()
    assert(!check(li, child))
  }

  test("never prunes a projection child") {
    val child = Transformations.project(li, Seq("l_tax")).cache()
    assert(!check(li, child))
  }

  test("never prunes an exact duplicate, either direction") {
    val dup = Transformations.duplicate(li)
    assert(!check(li, dup))
    assert(!check(dup, li))
  }

  test("never prunes a child of an add-columns parent (projection containment)") {
    val wide = Transformations.addDerivedColumns(li, 1, "w", new Random(1)).cache()
    assert(!check(wide, li))
  }

  test("prunes a disjoint sibling on the first probes") {
    val a = li.where(col("l_returnflag") === "N").cache()
    val b = li.where(col("l_returnflag") === "R").cache()
    assert(check(a, b))
    assert(check(b, a))
  }

  test("prunes heavy in-range noise with high probability") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 2).cache()
    assert(check(li, noisy, CLPConfig(s = 4, t = 10)))
  }

  test("light contamination often survives weak sampling but not strong sampling") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.35, inRange = true, seed = 3).cache()
    // With s·t large the detection probability 1−(1−ρ)^{s·t} ≈ 1.
    assert(check(li, noisy, CLPConfig(s = 8, t = 50, seed = 4)))
  }

  test("prune over a graph removes only refuted edges and counts probes") {
    val filt = li.where(col("l_quantity") <= 25).cache()
    val bad = li.withColumn("l_quantity", col("l_quantity") + 1000).cache()
    val names = Map("p" -> li, "filt" -> filt, "bad" -> bad)
    val schemas = names.map { case (k, v) => k -> sch(v) }
    val g = ContainmentGraph(names.keys, Seq(Edge("p", "filt"), Edge("p", "bad")))
    val res = CLP.prune(g, names(_), schemas(_), CLPConfig(s = 2, t = 5))
    assert(res.graph.edges == Set(Edge("p", "filt")))
    assert(res.pruned == Set(Edge("p", "bad")))
    assert(res.probeCount > 0 && res.sampledRows > 0)
  }

  test("no common columns means no probes and no pruning") {
    val other = spark.range(5).select(col("id").as("zzz"))
    val res = pruneOne(li, other, CLPConfig())
    assert(res.pruned.isEmpty && res.probeCount == 0 && res.sampledRows == 0)
  }

  test("null values are handled null-safely (a contained child with nulls is kept)") {
    val parent = spark.range(10).select(
      col("id"),
      when(col("id") % 2 === 0, col("id").cast("double")).as("maybe"),
    ).cache()
    val child = parent.where(col("id") < 5).cache()
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("a child with nulls absent from the parent is pruned") {
    val parent = spark.range(10).select(col("id"), col("id").cast("double").as("v")).cache()
    val child = spark.range(10).select(col("id"), lit(null).cast("double").as("v")).cache()
    assert(check(parent, child, CLPConfig(s = 2, t = 10)))
  }

  test("probe budget respects s (probes ≤ s per edge)") {
    val dup = Transformations.duplicate(li)
    assert(pruneOne(li, dup, CLPConfig(s = 3, t = 5)).probeCount <= 3)
  }

  test("deterministic in seed") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val noisy = Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.1, inRange = true, seed = 8).cache()
    val r1 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    val r2 = check(li, noisy, CLPConfig(s = 2, t = 3, seed = 99))
    assert(r1 == r2)
  }

  test("sampledRows counts the distinct child rows drawn when pivots match fewer than t rows") {
    // Every id is unique, so the single probe's pivot matches exactly one row.
    val parent = spark.range(10).toDF("id").cache()
    val child = spark.range(5).toDF("id").cache()
    val res = pruneOne(parent, child, CLPConfig(s = 4, t = 10))
    assert(res.probeCount == 1 && res.sampledRows == 1 && res.pruned.isEmpty)
  }

  test("-0.0, NaN and null in the child match 0.0, NaN and null in the parent") {
    val schema = StructType(Seq(StructField("id", IntegerType), StructField("v", DoubleType)))
    def frame(vs: Seq[java.lang.Double]) = spark.createDataFrame(
      vs.zipWithIndex.map { case (v, i) => Row(i, v) }.asJava, schema).cache()
    val parent = frame(Seq(0.0, Double.NaN, null))
    val child = frame(Seq(-0.0, Double.NaN, null))
    assert(!check(parent, child, CLPConfig(s = 2, t = 10)))
    // The same with every child row in the sample, not just the drawn ones.
    val compared = Seq("id", "v")
    val all = ProbeSample(Probe(Edge("p", "c"), "v", 0L, compared), -0.0, child.collect().toSeq)
    assert(CLP.refute(Seq(all), Map("p" -> parent), parallelism = 1).isEmpty)
    assert(check(parent, frame(Seq(0.0, 1.0, null)), CLPConfig(s = 2, t = 10)))
  }

  test("a common column of another type in the parent is left out of the comparison") {
    val parent = spark.range(10).select(col("id").cast("string").as("id"), col("id").as("v")).cache()
    val child = spark.range(5).select(col("id"), col("id").as("v")).cache()
    val res = pruneOne(parent, child, CLPConfig(s = 2, t = 10))
    assert(res.probeCount == 2 && res.pruned.isEmpty)
    assert(check(parent, child.withColumn("v", col("v") + 100), CLPConfig(s = 2, t = 10)))
  }

  test("batched refutation agrees with the per-edge left-anti reference on the fixtures") {
    val stats = StatsCatalog.compute(li)
    val NumStats(lo, hi) = stats.cols("l_extendedprice").asInstanceOf[NumStats]
    val dfs = Map(
      "li" -> li,
      "north" -> li.where(col("l_returnflag") === "N").cache(),
      "south" -> li.where(col("l_returnflag") === "R").cache(),
      "proj" -> Transformations.project(li, Seq("l_tax")).cache(),
      "dup" -> Transformations.duplicate(li),
      "wide" -> Transformations.addDerivedColumns(li, 1, "w", new Random(1)).cache(),
      "heavy" -> Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.5, inRange = true, seed = 2).cache(),
      "light" -> Transformations.noise(li, "l_extendedprice", lo, hi, rho = 0.1, inRange = true, seed = 8).cache(),
    )
    val edges = Seq("north", "south", "proj", "dup", "heavy", "light").map(Edge("li", _)) ++ Seq(
      Edge("north", "south"), Edge("south", "north"), Edge("dup", "li"), Edge("wide", "li"), Edge("north", "proj"))
    val g = ContainmentGraph(dfs.keys, edges)
    for (cfg <- Seq(CLPConfig(), CLPConfig(s = 1, t = 3, seed = 5), CLPConfig(s = 8, t = 50, seed = 4))) {
      val (samples, _) = CLP.draw(g, dfs, dfs.view.mapValues(sch).toMap, cfg)
      val batched = CLP.refute(samples, dfs, cfg.parallelism).keySet
      assert(batched == CLPReference.refuted(samples, dfs), s"cfg=$cfg")
      assert(batched.contains(Edge("north", "south")), s"cfg=$cfg")
      if (cfg.s >= 4) assert(batched.contains(Edge("li", "heavy")), s"cfg=$cfg")
      assert(!batched.exists(e => Set("north", "proj", "dup").contains(e.child) && e.parent == "li"), s"cfg=$cfg")
    }
  }
}
