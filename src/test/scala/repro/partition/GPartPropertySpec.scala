package repro.partition

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** A ScalaCheck property: on small generated inputs, [[GPart.merge]]
  * returns exactly what [[GPartReference.merge]] returns — ids, files,
  * members and the bits of rho. The inputs mix equal-row catalogs (all
  * weights tie), zero-row files, range and random-subset families, every
  * span cap of GPartDifferentialSpec and both a strict and a loose
  * access-difference constant. The seed is fixed, so every run checks the
  * same cases.
  */
class GPartPropertySpec extends AnyFunSuite {
  import GPartPropertySpec.Case

  private def key(out: Seq[Part]): Vector[(Int, Vector[Int], Vector[Int], Long)] =
    out.toVector.map(p => (p.id, p.files.toVector, p.members.toVector.sorted,
      java.lang.Double.doubleToLongBits(p.rho)))

  private val genRows: Gen[Vector[Long]] = for {
    nFiles <- Gen.frequency(1 -> Gen.choose(1, 12), 2 -> Gen.choose(13, 60))
    kind   <- Gen.oneOf("equal", "varied", "some empty", "all empty")
    seed   <- Gen.long
  } yield {
    val rng = new Random(seed)
    Vector.fill(nFiles)(kind match {
      case "equal"      => 1000L
      case "varied"     => 1L + rng.nextInt(5000)
      case "some empty" => if (rng.nextInt(3) == 0) 0L else 1L + rng.nextInt(5000)
      case _            => 0L
    })
  }

  private def genParts(nFiles: Int): Gen[Vector[Part]] = for {
    nFamilies <- Gen.choose(0, 60)
    ranges    <- Gen.oneOf(true, false)
    width     <- Gen.choose(1, if (ranges) nFiles else math.min(nFiles, 4))
    zipf      <- Gen.oneOf(0.0, 1.0)
    seed      <- Gen.long
  } yield {
    val fams =
      if (ranges) QueryWorkload.rangeFamilies(nFiles, nFamilies, width, zipf, seed)
      else WorkloadGen.subsetFamilies(nFiles, nFamilies, width, zipf, seed)
    new Random(seed).shuffle(fams)
  }

  private def genCfg(totalRows: Long): Gen[GPartConfig] = for {
    cap     <- Gen.oneOf(Seq(2L, 12L, 40L).map(d => math.max(1L, totalRows / d)) :+ Long.MaxValue)
    rhoCAbs <- Gen.oneOf(0.0, 50.0)
  } yield GPartConfig(3.0, rhoCAbs, cap)

  private val genCase: Gen[Case] = for {
    rows  <- genRows
    parts <- genParts(rows.length)
    cfg   <- genCfg(rows.sum)
  } yield Case(rows, parts, cfg)

  test("G-PART merges exactly as the all-pairs reference on generated inputs") {
    val prop = Prop.forAllNoShrink(genCase) { c =>
      key(GPart.merge(c.parts, c.cat, c.cfg)) == key(GPartReference.merge(c.parts, c.cat, c.cfg))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(1500).withInitialSeed(Seed(20240611L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }

  test("of two equal-weight edges on one slot, the one to the lower other slot merges first") {
    // 2 and 3 merge first (w = 1/2) into 4 = {0, 9}. Then 0 has two edges of
    // weight 1/3: to 1, its own, and to 4, the merge's; (0, 1) < (0, 4).
    // The 30-row cap stops the merge {0, 1, 2} from growing.
    val cat   = FileCatalog(Vector.fill(10)(10L), Vector.fill(10)(100L))
    val parts = Vector(Seq(0, 1), Seq(1, 2), Seq(9), Seq(0, 9)).zipWithIndex.map { case (fs, id) =>
      Part.initial(id, fs, 1.0)
    }
    val out = GPart.merge(parts, cat, GPartConfig(3.0, 50.0, sThreshRows = 30L))
    assert(out.map(p => (p.id, p.files.toVector)) == Vector((4, Vector(0, 9)), (5, Vector(0, 1, 2))))
    assert(key(out) == key(GPartReference.merge(parts, cat, GPartConfig(3.0, 50.0, sThreshRows = 30L))))
  }
}

object GPartPropertySpec {

  /** One generated input: a catalog, families in input order and a config. */
  final case class Case(rows: Vector[Long], parts: Vector[Part], cfg: GPartConfig) {
    def cat: FileCatalog = FileCatalog(rows, rows.map(_ * 10))
  }
}
