package repro.partition

import scala.collection.immutable.SortedSet

/** Catalog of the files underlying a dataset: per-file record counts and
  * byte sizes. Partition span/overlap algebra (Section VI-A) is defined
  * over file ids against this catalog.
  *
  * @param rows  rows(f)  = |R_f|, number of records in file f
  * @param bytes bytes(f) = on-disk raw size of file f
  * @throws IllegalArgumentException naming the file if a row or byte count
  *         is negative
  */
final case class FileCatalog(rows: IndexedSeq[Long], bytes: IndexedSeq[Long]) {
  require(rows.length == bytes.length, "one byte size per file")
  for (f <- rows.indices) {
    require(rows(f) >= 0, s"file $f: row count ${rows(f)} is negative")
    require(bytes(f) >= 0, s"file $f: byte size ${bytes(f)} is negative")
  }
  def nFiles: Int = rows.length
  def spanRows(files: Iterable[Int]): Long   = files.iterator.map(rows(_)).sum
  def spanBytes(files: Iterable[Int]): Long  = files.iterator.map(bytes(_)).sum
}

/** A (possibly merged) data partition: a set of file ids plus its access
  * frequency rho. Initial partitions come from query families (all queries
  * touching the same file set); merged partitions are unions with summed
  * access frequencies.
  *
  * @param id     stable id (initial partitions: the query-family index;
  *               merges get fresh ids)
  * @param files  file ids making up the partition
  * @param rho    projected number of accesses
  * @param members initial-partition ids covered by this (possibly merged)
  *               partition — used to check the ILP's coverage constraint
  */
final case class Part(id: Int, files: SortedSet[Int], rho: Double, members: Set[Int]) {
  def spanRows(cat: FileCatalog): Long  = cat.spanRows(files)
  def spanBytes(cat: FileCatalog): Long = cat.spanBytes(files)

  /** Ov(this, that) = Sp(this) + Sp(that) - Sp(this ∪ that), in rows. */
  def overlapRows(that: Part, cat: FileCatalog): Long =
    cat.spanRows(files intersect that.files)

  /** Union-merge: files united, access frequencies summed (Section VI-A). */
  def merge(that: Part, newId: Int): Part =
    Part(newId, files union that.files, rho + that.rho, members union that.members)

  /** C(M) = Sp(M) * rho(M) — expected read cost of the merge, in row-accesses. */
  def cost(cat: FileCatalog): Double = spanRows(cat).toDouble * rho
}

object Part {
  /** An initial partition: its own sole member. */
  def initial(id: Int, files: Iterable[Int], rho: Double): Part =
    Part(id, SortedSet.from(files), rho, Set(id))

  /** Total space (rows) of a set of chosen merges — the MERGE PARTITIONS
    * objective (eq. (2)). Overlap *between* chosen merges is counted per
    * merge (it is duplicated storage), exactly as in the paper.
    */
  def totalSpaceRows(merges: Seq[Part], cat: FileCatalog): Long =
    merges.iterator.map(_.spanRows(cat)).sum

  /** Total expected read cost sum_k Sp(M_k) * rho(M_k) of chosen merges. */
  def totalCost(merges: Seq[Part], cat: FileCatalog): Double =
    merges.iterator.map(_.cost(cat)).sum

  /** Duplication metric of Fig. 7: 1 - distinctRows / totalRows. */
  def duplication(merges: Seq[Part], cat: FileCatalog): Double = {
    val total = totalSpaceRows(merges, cat).toDouble
    if (total == 0) 0.0
    else {
      val distinct = cat.spanRows(merges.iterator.flatMap(_.files).toSet)
      1.0 - distinct / total
    }
  }

  /** Paper's merge feasibility: rho's within ratio rhoC of each other, OR
    * absolute difference within rhoCAbs.
    */
  def accessCompatible(a: Part, b: Part, rhoC: Double, rhoCAbs: Double): Boolean =
    accessCompatible(a.rho, b.rho, rhoC, rhoCAbs)

  /** [[accessCompatible]] on the two access frequencies themselves. */
  def accessCompatible(rhoA: Double, rhoB: Double, rhoC: Double, rhoCAbs: Double): Boolean = {
    val lo = math.min(rhoA, rhoB)
    val hi = math.max(rhoA, rhoB)
    (lo > 0 && hi / lo <= rhoC) || math.abs(rhoA - rhoB) <= rhoCAbs
  }
}
