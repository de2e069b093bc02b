package repro.perfbench

import repro.exp.Profiles
import repro.lake.{FamilySpec, LakeProfile}

/** A benchmark workload: a seeded lake profile at a row scale. */
final case class Workload(name: String, scale: Double, profile: Long => LakeProfile)

object Workloads {

  /** Keep the first `families` of a profile and reshape each one. */
  private def trimmed(p: LakeProfile, families: Int)(shape: FamilySpec => FamilySpec): LakeProfile =
    p.copy(families = p.families.take(families).map(shape))

  /** Each family keeps its root, one WHERE-filter child and one projection. */
  private def small(f: FamilySpec): FamilySpec =
    f.copy(filters = 1, projections = 1, addRows = 0, addCols = 0, noiseIn = 0, noiseOut = 0,
      duplicates = 0, chainLen = 0)

  val all: Seq[Workload] = Seq(
    // Customer 1's families at scale 1 (1.5k-row roots), three of them: tiny
    // tables, so plan time is per-job overhead (stats jobs, CLP probes).
    Workload("lake-c1", 1.0, seed => trimmed(Profiles.customer1(1.0, seed), 3)(small)),
    // Customer 2's families at scale 4 (32k-row roots), three of them: ~20x
    // the rows per table, so row-bound work (stats scans, parent-side scans
    // in CLP, re-ingest on update) weighs more.
    Workload("lake-c2x4", 4.0, seed => trimmed(Profiles.customer2(4.0, seed), 3)(small)),
  )

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
