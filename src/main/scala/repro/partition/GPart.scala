package repro.partition

import scala.collection.immutable.SortedSet

/** G-PART (Algorithm 1): greedy partition merging on the overlap graph.
  *
  * Nodes are partitions; an edge between two partitions exists iff their
  * fractional overlap w = Ov(u,v) / Sp(u ∪ v) is > 0 and they are
  * access-compatible (ratio within rhoC or difference within rhoCAbs).
  * Repeatedly merge the endpoints of the heaviest edge, and add edges from
  * the merged node to its surviving neighbours unless the merged span
  * reached S_thresh.
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

  /** Fractional overlap w = Ov / Sp(a ∪ b) from the overlap and the two
    * spans, all in rows: Sp(a ∪ b) = Sp(a) + Sp(b) - Ov. 0 for an empty union.
    */
  private def weight(ov: Long, spanA: Long, spanB: Long): Double = {
    val union = spanA + spanB - ov
    if (union == 0) 0.0 else ov.toDouble / union.toDouble
  }

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

  /** Sorts the edges (w(i), to(i)) best first: the larger w by
    * `java.lang.Double.compare`, then the lower slot `to` (heapsort).
    */
  private def sortBestFirst(w: Array[Double], to: Array[Int]): Unit = {
    def before(i: Int, j: Int): Boolean = {
      val c = java.lang.Double.compare(w(i), w(j))
      c > 0 || (c == 0 && to(i) < to(j))
    }
    def swap(i: Int, j: Int): Unit = {
      val wi = w(i); w(i) = w(j); w(j) = wi
      val ti = to(i); to(i) = to(j); to(j) = ti
    }
    // The heap keeps its worst edge on top, and each step moves it to the back.
    def siftDown(i0: Int, n: Int): Unit = {
      var i = i0
      var c = 2 * i + 1
      while (c < n) {
        if (c + 1 < n && before(c, c + 1)) c += 1
        if (before(i, c)) { swap(i, c); i = c; c = 2 * i + 1 } else c = n
      }
    }
    for (i <- w.length / 2 - 1 to 0 by -1) siftDown(i, w.length)
    for (n <- w.length - 1 until 0 by -1) { swap(0, n); siftDown(0, n) }
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
    *
    * Each mergeable pair is listed once, by the slot whose scan found it:
    * initial slot i lists its pairs with the slots above it, and a merge its
    * pairs with every live slot, all of them below it. A slot's list is
    * sorted best first, heavier then lower pair, and a cursor marks its
    * first edge not yet discarded. The merge queue is a binary heap with one
    * entry per slot, keyed by the edge at its cursor in the same order. An
    * entry whose slot is dead is dropped; one whose other end is dead moves
    * its cursor past the dead neighbours and re-enters, if an edge is left.
    * Weights never change while both ends live, so no live slot's entry
    * sorts below its best live edge, and the first live edge at the top is
    * the heaviest live edge of all: of two equal-weight edges, the one whose
    * (smaller id, larger id) pair is lower merges first, whatever the order
    * of `initial`.
    *
    * A file → live-slot index restricts scoring to pairs that share a file,
    * the only pairs with w > 0. With h_f the number of partitions that
    * hold file f, the first scan costs O(Σ_f h_f²); each merge costs
    * O(Σ_{f in merge} h_f) to union the files, update the index and score
    * the merge's neighbours. A slot of degree d sorts its list in
    * O(d log d), and each queue operation costs O(log P) on at most one
    * entry per slot.
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

    // holders(f)(0 until nHolders(f)): the listed live slots that hold file
    // f, in no particular order. A merge replaces one or two holders of each
    // of its files by one, so no file ever has more holders than at the start.
    // The loops over files are while loops: ArrayOps.foreach boxes each id.
    val nHolders = new Array[Int](cat.nFiles)
    for (i <- 0 until n) {
      val fs = files(i)
      var j = 0
      while (j < fs.length) { nHolders(fs(j)) += 1; j += 1 }
    }
    val holders = nHolders.map(new Array[Int](_))
    java.util.Arrays.fill(nHolders, 0)
    def addHolders(s: Int): Unit = {
      val fs = files(s)
      var j = 0
      while (j < fs.length) { val f = fs(j); holders(f)(nHolders(f)) = s; nHolders(f) += 1; j += 1 }
    }
    def removeHolders(s: Int): Unit = {
      val fs = files(s)
      var j = 0
      while (j < fs.length) {
        val f  = fs(j)
        val hs = holders(f)
        var i  = 0
        while (hs(i) != s) i += 1
        nHolders(f) -= 1
        hs(i) = hs(nHolders(f))
        j += 1
      }
    }

    // edgeW(s), edgeTo(s): slot s's edges, best first; cur(s) is the first
    // not yet discarded.
    val edgeW  = new Array[Array[Double]](slots)
    val edgeTo = new Array[Array[Int]](slots)
    val cur    = new Array[Int](slots)
    // Scratch for listEdges: ov(k) sums the rows slot s shares with slot k,
    // stamped s + 1; touched lists those k, and w holds the kept weights.
    val ov      = new Array[Long](slots)
    val stamp   = new Array[Int](slots)
    val touched = new Array[Int](slots)
    val w       = new Array[Double](slots)
    // Lists slot s's mergeable edges to the slots that hold one of its
    // files, which must not include s itself.
    def listEdges(s: Int): Unit = {
      var nEdges = 0
      if (span(s) < cfg.sThreshRows) {
        val fs = files(s)
        var nTouched = 0
        var j = 0
        while (j < fs.length) {
          val f  = fs(j)
          val hs = holders(f)
          var i  = 0
          while (i < nHolders(f)) {
            val k = hs(i)
            if (stamp(k) != s + 1) { stamp(k) = s + 1; ov(k) = 0L; touched(nTouched) = k; nTouched += 1 }
            ov(k) += rows(f)
            i += 1
          }
          j += 1
        }
        var t = 0
        while (t < nTouched) {
          val k  = touched(t)
          val wk = weight(ov(k), span(s), span(k))
          if (span(k) < cfg.sThreshRows && Part.accessCompatible(rho(s), rho(k), cfg.rhoC, cfg.rhoCAbs) && wk > 0) {
            touched(nEdges) = k; w(nEdges) = wk; nEdges += 1
          }
          t += 1
        }
      }
      edgeW(s) = java.util.Arrays.copyOf(w, nEdges)
      edgeTo(s) = java.util.Arrays.copyOf(touched, nEdges)
      sortBestFirst(edgeW(s), edgeTo(s))
    }

    // queue(0 until size): a binary heap of slots, the best edge on top.
    val queue = new Array[Int](slots)
    var size  = 0
    // Slot s's entry leaves the queue after slot t's: its edge is lighter,
    // or of equal weight with a higher (lower slot, higher slot) pair.
    def after(s: Int, t: Int): Boolean = {
      val c = java.lang.Double.compare(edgeW(s)(cur(s)), edgeW(t)(cur(t)))
      if (c != 0) c < 0
      else {
        val ks = edgeTo(s)(cur(s)); val kt = edgeTo(t)(cur(t))
        val as = math.min(s, ks);   val at = math.min(t, kt)
        if (as != at) as > at else math.max(s, ks) > math.max(t, kt)
      }
    }
    def siftDown(i0: Int): Unit = {
      var i = i0
      var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && after(queue(c), queue(c + 1))) c += 1
        if (after(queue(i), queue(c))) {
          val q = queue(i); queue(i) = queue(c); queue(c) = q
          i = c; c = 2 * i + 1
        } else c = size
      }
    }

    // Slots are listed from the top down, so slot i's holders are above it.
    for (i <- n - 1 to 0 by -1) { listEdges(i); addHolders(i) }
    for (i <- 0 until n if edgeTo(i).nonEmpty) { queue(size) = i; size += 1 }
    for (i <- size / 2 - 1 to 0 by -1) siftDown(i)

    val firstMergeId = math.max(parts.lastOption.fold(0)(_.id), 0) + 1
    var next = n

    def mergeSlots(x: Int, y: Int): Int = {
      val a = math.min(x, y); val b = math.max(x, y)
      val m = next
      next += 1
      setFiles(m, union(files(a), files(b)))
      rho(m) = rho(a) + rho(b)
      left(m) = a; right(m) = b
      alive(a) = false; alive(b) = false; alive(m) = true
      removeHolders(a); removeHolders(b)
      listEdges(m)
      addHolders(m)
      m
    }

    while (size > 0) {
      val s  = queue(0)
      val to = edgeTo(s)
      // What takes the top: s at its next live edge, the merge, or nothing (-1).
      val top =
        if (!alive(s)) -1
        else if (!alive(to(cur(s)))) {
          while (cur(s) < to.length && !alive(to(cur(s)))) cur(s) += 1
          if (cur(s) < to.length) s else -1
        } else {
          val m = mergeSlots(s, to(cur(s)))
          if (edgeTo(m).nonEmpty) m else -1
        }
      if (top >= 0) queue(0) = top
      else { size -= 1; queue(0) = queue(size) }
      siftDown(0)
    }

    // Members are the leaves' members, leaves left to right: the order in
    // which Part.merge's unions would add them.
    val stack = new Array[Int](n)
    def members(s: Int): Set[Int] = {
      val out = Set.newBuilder[Int]
      stack(0) = s
      var depth = 1
      while (depth > 0) {
        depth -= 1
        val t = stack(depth)
        if (t < n) out ++= parts(t).members
        else { stack(depth) = right(t); stack(depth + 1) = left(t); depth += 2 }
      }
      out.result()
    }
    def part(s: Int): Part =
      if (s < n) parts(s) else Part(firstMergeId + s - n, SortedSet.from(files(s)), rho(s), members(s))
    (0 until next).filter(alive).map(part).toVector
  }
}
