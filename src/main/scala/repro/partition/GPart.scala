package repro.partition

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

  private final case class Edge(w: Double, a: Int, b: Int)

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

  /** Sums, per partition id in `holders(f)` for the files f of `files`, the
    * rows of the files it shares with them; `keep` filters the ids.
    */
  private def overlaps(files: Iterable[Int], holders: Int => Iterable[Int], cat: FileCatalog)
                      (keep: Int => Boolean): mutable.LongMap[Long] = {
    val ov = mutable.LongMap.empty[Long]
    for (f <- files; k <- holders(f) if keep(k)) ov(k) = ov.getOrElse(k, 0L) + cat.rows(f)
    ov
  }

  /** Runs G-PART and returns the final set of partitions (merges plus any
    * unmergeable singletons). Every initial partition is covered by exactly
    * one returned partition.
    *
    * A file → live-partition index restricts scoring to pairs that share a
    * file, the only pairs with w > 0. With h_f the number of partitions that
    * hold file f, the first scan costs O(Σ_f h_f²); each merge costs
    * O(Σ_{f in merge} h_f) to score its neighbours, O(P) to walk the live
    * partitions in their map order, and O(log E) per heap operation.
    * Which of two equal-weight edges leaves the heap first depends on the
    * enqueue sequence, so the sequence is fixed: initial pairs by (i, j),
    * re-inserted edges in live-map order.
    */
  def merge(initial: Seq[Part], cat: FileCatalog, cfg: GPartConfig): Vector[Part] = {
    val live   = mutable.Map.from(initial.map(p => p.id -> p))
    var nextId = initial.iterator.map(_.id).foldLeft(0)(math.max) + 1
    val heap   = mutable.PriorityQueue.empty[Edge](Ordering.by(_.w))

    def enqueueIfMergeable(a: Part, spanA: Long, b: Part, spanB: Long, ov: Long): Unit = {
      val w = weight(ov, spanA, spanB)
      if (spanA < cfg.sThreshRows && spanB < cfg.sThreshRows &&
          Part.accessCompatible(a, b, cfg.rhoC, cfg.rhoCAbs) && w > 0)
        heap.enqueue(Edge(w, a.id, b.id))
    }

    val parts = initial.toIndexedSeq
    val spans = parts.map(_.spanRows(cat))
    val holdersAt = Array.fill(cat.nFiles)(mutable.ArrayBuffer.empty[Int])
    for (i <- parts.indices; f <- parts(i).files) holdersAt(f) += i
    for (i <- parts.indices) {
      val ov = overlaps(parts(i).files, holdersAt(_), cat)(_ > i)
      for (j <- ov.keys.toArray.sorted.map(_.toInt))
        enqueueIfMergeable(parts(i), spans(i), parts(j), spans(j), ov(j))
    }

    val span    = mutable.LongMap.from(live.valuesIterator.map(p => p.id.toLong -> p.spanRows(cat)))
    val holders = Array.fill(cat.nFiles)(mutable.Set.empty[Int])
    for (p <- live.valuesIterator; f <- p.files) holders(f) += p.id

    while (heap.nonEmpty) {
      val Edge(_, a, b) = heap.dequeue()
      // Lazily skip edges whose endpoints were already merged away.
      if (live.contains(a) && live.contains(b)) {
        val (pa, pb) = (live(a), live(b))
        val m = pa.merge(pb, nextId)
        nextId += 1
        live.remove(a); live.remove(b)
        live(m.id) = m
        for (f <- pa.files) holders(f) -= a
        for (f <- pb.files) holders(f) -= b
        for (f <- m.files) holders(f) += m.id
        span -= a; span -= b
        val mSpan = m.spanRows(cat)
        span(m.id) = mSpan
        if (mSpan < cfg.sThreshRows) {
          val ov = overlaps(m.files, holders(_), cat)(_ != m.id)
          if (ov.nonEmpty)
            for ((kid, k) <- live if ov.contains(kid))
              enqueueIfMergeable(m, mSpan, k, span(kid), ov(kid))
        }
      }
    }
    live.values.toVector.sortBy(_.id)
  }
}
