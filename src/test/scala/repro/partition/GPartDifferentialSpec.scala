package repro.partition

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** [[GPart.merge]] against the first-written all-pairs version kept in
  * [[GPartReference]]: the merged partitions must be exactly equal — ids,
  * files, members and the bits of rho — including the order in which
  * equal-weight edges were merged.
  */
class GPartDifferentialSpec extends AnyFunSuite {

  private def key(out: Seq[Part]): Vector[(Int, Vector[Int], Vector[Int], Long)] =
    out.toVector.map(p => (p.id, p.files.toVector, p.members.toVector.sorted,
      java.lang.Double.doubleToLongBits(p.rho)))

  private def assertSame(parts: Seq[Part], cat: FileCatalog, cfg: GPartConfig, clue: String): Unit =
    assert(key(GPart.merge(parts, cat, cfg)) == key(GPartReference.merge(parts, cat, cfg)), clue)

  /** Caps the span at total / d rows for each d, plus no cap at all. */
  private def configs(cat: FileCatalog, rhoCAbs: Double): Seq[GPartConfig] =
    Seq(2L, 12L, 40L).map(d => GPartConfig(3.0, rhoCAbs, math.max(1L, cat.rows.sum / d))) :+
      GPartConfig(3.0, rhoCAbs)

  test("uniform families over equal-row files (equal weights) merge identically") {
    for (seed <- 1 to 4; (nFiles, nFamilies) <- Seq((20, 10), (162, 160), (400, 300))) {
      val cat   = FileCatalog(Vector.fill(nFiles)(1000L), Vector.fill(nFiles)(100000L))
      val parts = QueryWorkload.rangeFamilies(nFiles, nFamilies, math.max(1, nFiles / 8), 0.0, seed)
      for (cfg <- configs(cat, 50.0))
        assertSame(parts, cat, cfg, s"seed=$seed files=$nFiles families=$nFamilies $cfg")
    }
  }

  test("Zipf range families over a varied catalog merge identically") {
    for (seed <- 1 to 3; nFamilies <- Seq(50, 200, 400)) {
      val cat   = QueryWorkload.syntheticCatalog(2 * nFamilies, 10000, 100, seed)
      val parts = QueryWorkload.rangeFamilies(cat.nFiles, nFamilies, 40, 1.0, seed + 1)
      for (cfg <- configs(cat, 50.0))
        assertSame(parts, cat, cfg, s"seed=$seed families=$nFamilies $cfg")
    }
  }

  test("random-subset families and access-incompatible neighbours merge identically") {
    for (seed <- 1 to 3) {
      val cat   = QueryWorkload.syntheticCatalog(60, 100, 10, seed)
      val parts = WorkloadGen.subsetFamilies(60, 80, 4, if (seed == 2) 0.0 else 0.8, seed)
      for (cfg <- configs(cat, 0.0) ++ configs(cat, 5.0))
        assertSame(parts, cat, cfg, s"seed=$seed $cfg")
    }
  }

  test("zero-row files: overlaps made only of empty files carry no edge") {
    for (seed <- 1 to 4) {
      val rng  = new Random(seed)
      val base = QueryWorkload.syntheticCatalog(120, 500, 10, seed)
      val rows = base.rows.map(r => if (rng.nextInt(3) == 0) 0L else r)
      val cat  = FileCatalog(rows, rows.map(_ * 10))
      val parts = QueryWorkload.rangeFamilies(120, 90, 6, if (seed % 2 == 0) 0.0 else 1.0, seed)
      for (cfg <- configs(cat, 50.0))
        assertSame(parts, cat, cfg, s"seed=$seed $cfg")
    }
    val empty = FileCatalog(Vector.fill(5)(0L), Vector.fill(5)(0L))
    val parts = (0 until 4).map(i => Part.initial(i, Seq(i, i + 1), 1.0))
    assertSame(parts, empty, GPartConfig(), "all files empty")
    assert(GPart.merge(parts, empty, GPartConfig()).size == 4)
  }

  test("families passed as a List, an empty input and a single partition merge identically") {
    for (seed <- 1 to 3; nFamilies <- Seq(50, 200)) {
      val equal = FileCatalog(Vector.fill(nFamilies)(1000L), Vector.fill(nFamilies)(100000L))
      val ties  = QueryWorkload.rangeFamilies(nFamilies, nFamilies, nFamilies / 8, 0.0, seed).toList
      for (cfg <- configs(equal, 50.0))
        assertSame(ties, equal, cfg, s"List, equal weights, seed=$seed families=$nFamilies $cfg")
      val cat   = QueryWorkload.syntheticCatalog(2 * nFamilies, 10000, 100, seed)
      val parts = QueryWorkload.rangeFamilies(cat.nFiles, nFamilies, 40, 1.0, seed + 1).toList
      for (cfg <- configs(cat, 50.0))
        assertSame(parts, cat, cfg, s"List, Zipf, seed=$seed families=$nFamilies $cfg")
    }
    val cat = QueryWorkload.syntheticCatalog(20, 100, 10, 1)
    for (cfg <- configs(cat, 50.0)) {
      assertSame(Nil, cat, cfg, s"empty $cfg")
      assertSame(Seq(Part.initial(7, Seq(2, 3, 4), 5.0)), cat, cfg, s"single $cfg")
    }
  }

  test("non-contiguous ids >= 65536 merge identically") {
    for (seed <- 1 to 3) {
      val rng   = new Random(seed)
      val cat   = QueryWorkload.syntheticCatalog(300, 1000, 10, seed)
      val fams  = QueryWorkload.rangeFamilies(300, 200, 20, 1.0, seed)
      val ids   = rng.shuffle((0 until 1000).toVector).take(fams.size).map(65536 + 3 * _)
      val parts = fams.zip(ids).map { case (p, id) => Part.initial(id, p.files, p.rho) }
      for (cfg <- configs(cat, 50.0))
        assertSame(parts, cat, cfg, s"seed=$seed $cfg")
    }
  }
}
