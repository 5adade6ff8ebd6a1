package repro.partition

import org.scalatest.funsuite.AnyFunSuite

class QueryWorkloadSpec extends AnyFunSuite {

  test("rangeFamilies are deterministic in the seed") {
    val a = QueryWorkload.rangeFamilies(50, 10, 5, 1.0, seed = 1)
    val b = QueryWorkload.rangeFamilies(50, 10, 5, 1.0, seed = 1)
    assert(a == b)
    val c = QueryWorkload.rangeFamilies(50, 10, 5, 1.0, seed = 2)
    assert(a != c)
  }

  test("rangeFamilies: files are contiguous in-bounds ranges") {
    val fams = QueryWorkload.rangeFamilies(30, 20, 6, 0.0, seed = 3)
    fams.foreach { p =>
      val fs = p.files.toVector
      assert(fs.head >= 0 && fs.last < 30)
      assert(fs == (fs.head to fs.last).toVector)
      assert(fs.length <= 6)
    }
  }

  test("rangeFamilies are ordered by end file (ready for OrderedDP)") {
    val fams = QueryWorkload.rangeFamilies(40, 15, 5, 1.0, seed = 4)
    val ends = fams.map(_.files.max)
    assert(ends == ends.sorted)
  }

  test("zipf frequencies are skewed: top family dominates") {
    val fams = QueryWorkload.rangeFamilies(40, 20, 5, 1.2, seed = 5)
    val freqs = fams.map(_.rho).sorted.reverse
    assert(freqs.head > 4 * freqs.last)
  }

  test("uniform frequencies stay within [1, 21)") {
    val fams = QueryWorkload.rangeFamilies(40, 30, 5, 0.0, seed = 6)
    assert(fams.forall(p => p.rho >= 1.0 && p.rho < 21.0))
  }

  test("subsetFamilies pick the requested number of distinct files") {
    val fams = WorkloadGen.subsetFamilies(20, 10, 4, 0.0, seed = 7)
    fams.foreach(p => assert(p.files.size == 4 && p.files.forall(f => f >= 0 && f < 20)))
  }

  test("syntheticCatalog: deterministic, positive rows, bytes = rows * bytesPerRow") {
    val c1 = QueryWorkload.syntheticCatalog(10, 100, 50, seed = 9)
    val c2 = QueryWorkload.syntheticCatalog(10, 100, 50, seed = 9)
    assert(c1 == c2)
    assert(c1.rows.forall(_ > 0))
    assert(c1.rows.zip(c1.bytes).forall { case (r, b) => b == r * 50 })
  }

  test("rangeFamilies rejects fewer than one file") {
    for (bad <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](QueryWorkload.rangeFamilies(bad, 5, 1, 1.0, seed = 11))
      assert(e.getMessage.contains("nFiles") && e.getMessage.contains(s"$bad"), e.getMessage)
    }
  }

  test("rangeFamilies rejects a negative family count") {
    val e = intercept[IllegalArgumentException](QueryWorkload.rangeFamilies(10, -1, 2, 1.0, seed = 12))
    assert(e.getMessage.contains("nFamilies") && e.getMessage.contains("-1"), e.getMessage)
    assert(QueryWorkload.rangeFamilies(10, 0, 2, 1.0, seed = 12).isEmpty)
  }

  test("rangeFamilies rejects a span cap outside 1..nFiles") {
    for (bad <- Seq(0, -2, 11)) {
      val e = intercept[IllegalArgumentException](QueryWorkload.rangeFamilies(10, 5, bad, 1.0, seed = 13))
      assert(e.getMessage.contains("maxSpanFiles") && e.getMessage.contains(s"$bad"), e.getMessage)
    }
    val whole = QueryWorkload.rangeFamilies(10, 50, 10, 1.0, seed = 13)
    assert(whole.forall(_.files.max < 10))
  }

  test("family ids are unique") {
    val fams = QueryWorkload.rangeFamilies(40, 25, 5, 1.0, seed = 10)
    assert(fams.map(_.id).distinct.length == fams.length)
  }
}
