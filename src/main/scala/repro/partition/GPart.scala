package repro.partition

import scala.collection.immutable.SortedSet
import scala.collection.mutable

/** G-PART (Algorithm 1): greedy partition merging on the overlap graph.
  *
  * Nodes are partitions; an edge between two partitions exists iff their
  * fractional overlap w = Ov(u,v) / Sp(u ∪ v) is > 0 and they are
  * access-compatible (ratio within rhoC or difference within rhoCAbs).
  * Edges live in a max-heap on w; repeatedly pop the heaviest edge, merge
  * its endpoints, and re-insert edges from the merged node to surviving
  * neighbours unless the merged span reached S_thresh.
  *
  * @param rhoC       access-ratio feasibility constant (rho_c)
  * @param rhoCAbs    access-difference feasibility constant (rho_c')
  * @param sThreshRows soft span cap S_thresh (rows): a merge at or above it
  *                   stops growing
  */
final case class GPartConfig(
    rhoC: Double = 3.0,
    rhoCAbs: Double = 5.0,
    sThreshRows: Long = Long.MaxValue,
) {
  require(rhoC > 0, s"rhoC must be a positive number, got $rhoC")
  require(rhoCAbs >= 0, s"rhoCAbs must be a non-negative number, got $rhoCAbs")
  require(sThreshRows > 0, s"sThreshRows must be positive, got $sThreshRows")
}

object GPart {

  /** A heap entry: the fractional overlap `w` of the partitions in slots
    * `a` < `b`.
    */
  private final case class Edge(w: Double, a: Int, b: Int)

  /** Max-heap order: the larger `w` first, then the lower (`a`, `b`) pair.
    * Slots are numbered in id order, each pair is enqueued at most once and
    * slots are never reused, so the order is total: of two equal weights the
    * lower id pair merges first, whatever the order of the pushes.
    */
  private val byWeightThenIds: Ordering[Edge] = new Ordering[Edge] {
    def compare(x: Edge, y: Edge): Int = {
      val c = java.lang.Double.compare(x.w, y.w)
      if (c != 0) c else if (x.a != y.a) Integer.compare(y.a, x.a) else Integer.compare(y.b, x.b)
    }
  }

  /** Fractional overlap w = Ov / Sp(a ∪ b) from the overlap and the two
    * spans, all in rows: Sp(a ∪ b) = Sp(a) + Sp(b) - Ov. 0 for an empty union.
    */
  private def weight(ov: Long, spanA: Long, spanB: Long): Double = {
    val union = spanA + spanB - ov
    if (union == 0) 0.0 else ov.toDouble / union.toDouble
  }

  /** Fractional overlap of two partitions; 0 when disjoint. */
  def fractionalOverlap(a: Part, b: Part, cat: FileCatalog): Double =
    weight(a.overlapRows(b, cat), a.spanRows(cat), b.spanRows(cat))

  /** The union of two ascending arrays of distinct file ids, ascending. */
  private def union(x: Array[Int], y: Array[Int]): Array[Int] = {
    val out = new Array[Int](x.length + y.length)
    var i = 0; var j = 0; var n = 0
    while (i < x.length || j < y.length) {
      if (j == y.length || (i < x.length && x(i) < y(j))) { out(n) = x(i); i += 1 }
      else { if (i < x.length && x(i) == y(j)) i += 1; out(n) = y(j); j += 1 }
      n += 1
    }
    if (n == out.length) out else java.util.Arrays.copyOf(out, n)
  }

  /** Runs G-PART and returns the final set of partitions (merges plus any
    * unmergeable singletons). Every initial partition is covered by exactly
    * one returned partition. Throws an `IllegalArgumentException` naming the
    * part if two parts share an id or a part holds a file outside `cat`.
    *
    * Every partition has a dense slot: the initial partition with the i-th
    * smallest id is slot i, and merge j is slot n + j, with an id above
    * every initial one. Slots hold the sorted files, span, rho and children
    * of a partition; the `Part`s are built once, at the end.
    * A file → live-slot index restricts scoring to pairs that share a file,
    * the only pairs with w > 0. With h_f the number of partitions that
    * hold file f, the first scan costs O(Σ_f h_f²); each merge costs
    * O(Σ_{f in merge} h_f) to union the files, update the index and score
    * the merge's neighbours, and O(log E) per heap operation. Of two
    * equal-weight edges, the one whose (smaller id, larger id) pair is lower
    * merges first, so the merges do not depend on the order of `initial`.
    */
  def merge(initial: Seq[Part], cat: FileCatalog, cfg: GPartConfig): Vector[Part] = {
    val parts = initial.sortBy(_.id).toIndexedSeq
    val n     = parts.length
    val rows  = cat.rows.toArray
    // A run makes at most n - 1 merges, so 2n - 1 slots.
    val slots = math.max(2 * n - 1, 0)
    val files = new Array[Array[Int]](slots)
    val span  = new Array[Long](slots)
    val rho   = new Array[Double](slots)
    val alive = new Array[Boolean](slots)
    val left  = new Array[Int](slots)
    val right = new Array[Int](slots)
    def setFiles(s: Int, fs: Array[Int]): Unit = {
      files(s) = fs
      var sum = 0L; var i = 0
      while (i < fs.length) { sum += rows(fs(i)); i += 1 }
      span(s) = sum
    }
    for (i <- 0 until n) {
      val p = parts(i)
      require(i == 0 || parts(i - 1).id != p.id,
        s"part ${p.id}: G-PART's input holds more than one part with this id")
      val fs = p.files.toArray
      java.util.Arrays.sort(fs) // a SortedSet may carry another Ordering
      val outside = fs.filter(f => f < 0 || f >= cat.nFiles)
      require(outside.isEmpty, s"part ${p.id}: file ${outside.head} is not in the ${cat.nFiles}-file catalog")
      setFiles(i, fs)
      rho(i) = p.rho
      alive(i) = true
    }

    // holders(f)(0 until nHolders(f)): the live slots that hold file f, in no
    // particular order. A merge replaces one or two holders of each of its
    // files by one, so no file ever has more holders than at the start.
    val nHolders = new Array[Int](cat.nFiles)
    for (i <- 0 until n; f <- files(i)) nHolders(f) += 1
    val holders = nHolders.map(new Array[Int](_))
    java.util.Arrays.fill(nHolders, 0)
    def addHolder(f: Int, s: Int): Unit = { holders(f)(nHolders(f)) = s; nHolders(f) += 1 }
    def removeHolder(f: Int, s: Int): Unit = {
      val hs = holders(f)
      var i = 0
      while (hs(i) != s) i += 1
      nHolders(f) -= 1
      hs(i) = hs(nHolders(f))
    }
    for (i <- 0 until n; f <- files(i)) addHolder(f, i)

    // overlaps(s, keep): ov(k) = the rows slot s shares with each slot k that
    // holds one of its files and passes `keep`; the slots are stamped with
    // the call's number and listed in touched(0 until nTouched).
    val ov       = new Array[Long](slots)
    val stamp    = new Array[Int](slots)
    val touched  = new Array[Int](slots)
    var nTouched = 0
    var call     = 0
    def overlaps(s: Int)(keep: Int => Boolean): Unit = {
      call += 1
      nTouched = 0
      val fs = files(s)
      var j = 0
      while (j < fs.length) {
        val f  = fs(j)
        val hs = holders(f)
        var i  = 0
        while (i < nHolders(f)) {
          val k = hs(i)
          if (keep(k)) {
            if (stamp(k) != call) { stamp(k) = call; ov(k) = 0L; touched(nTouched) = k; nTouched += 1 }
            ov(k) += rows(f)
          }
          i += 1
        }
        j += 1
      }
    }

    val heap = mutable.PriorityQueue.empty[Edge](byWeightThenIds)
    def enqueueIfMergeable(a: Int, b: Int, ov: Long): Unit = {
      val w = weight(ov, span(a), span(b))
      if (span(a) < cfg.sThreshRows && span(b) < cfg.sThreshRows &&
          Part.accessCompatible(rho(a), rho(b), cfg.rhoC, cfg.rhoCAbs) && w > 0)
        heap += Edge(w, math.min(a, b), math.max(a, b))
    }
    def enqueueTouched(s: Int): Unit =
      for (t <- 0 until nTouched) enqueueIfMergeable(s, touched(t), ov(touched(t)))

    for (i <- 0 until n) { overlaps(i)(_ > i); enqueueTouched(i) }

    val firstMergeId = math.max(parts.lastOption.fold(0)(_.id), 0) + 1
    var next = n

    while (heap.nonEmpty) {
      val Edge(_, a, b) = heap.dequeue()
      // Lazily skip edges whose endpoints were already merged away.
      if (alive(a) && alive(b)) {
        val m = next
        next += 1
        setFiles(m, union(files(a), files(b)))
        rho(m) = rho(a) + rho(b)
        left(m) = a; right(m) = b
        alive(a) = false; alive(b) = false; alive(m) = true
        files(a).foreach(removeHolder(_, a))
        files(b).foreach(removeHolder(_, b))
        files(m).foreach(addHolder(_, m))
        if (span(m) < cfg.sThreshRows) {
          overlaps(m)(_ != m)
          enqueueTouched(m)
        }
      }
    }

    // Members are unions over the child slots, as Part.merge would form them.
    val members = new Array[Set[Int]](next)
    for (i <- 0 until n) members(i) = parts(i).members
    for (m <- n until next) members(m) = members(left(m)) union members(right(m))
    def part(s: Int): Part =
      if (s < n) parts(s) else Part(firstMergeId + s - n, SortedSet.from(files(s)), rho(s), members(s))
    (0 until next).filter(alive).map(part).toVector
  }
}
