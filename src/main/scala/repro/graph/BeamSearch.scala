package repro.graph

/** A scored search result: object id + squared distance to the query. */
final case class Candidate(id: Int, dist: Float)

/** Mutable per-query counters — the paper's auxiliary metric "number of
  * distance computations" plus edge-selection work, used by tests and benches.
  */
final class SearchStats {
  var distComputations: Long = 0L
  var nodesExpanded: Long = 0L
  var edgesScanned: Long = 0L
  def reset(): Unit = { distComputations = 0; nodesExpanded = 0; edgesScanned = 0 }
}

/** Greedy beam search (Section 2.1) over an arbitrary adjacency function.
  *
  * This single kernel powers every graph method in the repo; methods differ
  * only in `neighbors` (which graph / which on-the-fly edge selection),
  * `visit` (may this node be *traversed*, i.e., entered into the beam —
  * In-filtering restricts this) and `admit` (may this node appear in the
  * *result* — Post-filtering restricts this).
  *
  * The `neighbors` function returns the adjacency of the expanded node; a
  * negative id terminates the list early, which lets callers reuse a padded
  * scratch buffer across expansions (the on-the-fly edge selection does).
  * The kernel reads that array before it calls `neighbors` again.
  *
  * Termination follows the standard filtered-search convention: the beam is
  * the set of best *visited* nodes; the search stops when the nearest
  * unexpanded candidate is farther than the beam's worst member and the beam
  * is full. Results are the admitted nodes seen, best-first, top-k. Ties
  * break by id: candidates are ordered by `java.lang.Float.compare` on the
  * distance, then by id.
  *
  * The search state lives in primitive arrays that each thread reuses from
  * call to call (the `Kernel` below), so the kernel allocates little beyond
  * the result array.
  */
object BeamSearch {

  def search(
      q: Array[Float],
      dist: Int => Float,
      entries: Seq[Int],
      beam: Int,
      k: Int,
      neighbors: Int => Array[Int],
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = _ => true,
      stats: SearchStats = null,
  ): Array[Candidate] = {
    require(beam >= 1 && k >= 0, s"need beam >= 1 and k >= 0, got beam = $beam, k = $k")
    val pooled = pool.get
    // A `neighbors` or `visit` callback may itself search on this thread.
    val kernel = if (pooled.inUse) new Kernel else pooled
    kernel.inUse = true
    try kernel.run(dist, entries, beam, k, neighbors, visit, admit, stats)
    finally kernel.inUse = false
  }

  private val pool = ThreadLocal.withInitial[Kernel](() => new Kernel)

  /** (d1, i1) ranks before (d2, i2). */
  private def before(d1: Float, i1: Int, d2: Float, i2: Int): Boolean = {
    val c = java.lang.Float.compare(d1, d2)
    c < 0 || (c == 0 && i1 < i2)
  }

  /** Inserts (d, id) into `dists`/`ids`[0, size), sorted ascending and
    * holding at most `cap` entries, dropping the last entry when full.
    * Returns the slot taken, or -1 if a full list's last entry ranks first.
    */
  private def insert(dists: Array[Float], ids: Array[Int], size: Int, cap: Int,
                     d: Float, id: Int): Int = {
    if (size == cap && !before(d, id, dists(size - 1), ids(size - 1))) return -1
    var lo = 0
    var hi = size
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (before(dists(mid), ids(mid), d, id)) lo = mid + 1 else hi = mid
    }
    val tail = math.min(size, cap - 1) - lo
    System.arraycopy(dists, lo, dists, lo + 1, tail)
    System.arraycopy(ids, lo, ids, lo + 1, tail)
    dists(lo) = d
    ids(lo) = id
    lo
  }

  /** One search's state, confined to one thread and reused across calls.
    *
    *  - **Visited set:** `mark(id) == epoch`. A new search bumps the epoch;
    *    the array is zero-filled only when the epoch wraps, and grows on
    *    demand to the largest id seen.
    *  - **Beam:** the best `beam` visited nodes, sorted ascending by
    *    (dist, id) in parallel arrays with an `expanded` flag per slot;
    *    `cursor` is the first unexpanded slot. It replaces both a frontier
    *    heap and a beam heap: a frontier entry outside the beam ranks after
    *    the beam's worst member, so it could only ever end the search.
    *  - **Admitted list:** the best `max(k, beam)` admitted nodes, sorted.
    */
  private final class Kernel {
    var inUse = false

    private var mark = new Array[Int](1024)
    private var epoch = 0

    private var beamDist = new Array[Float](64)
    private var beamId = new Array[Int](64)
    private var expanded = new Array[Boolean](64)
    private var beamSize = 0
    private var cursor = 0

    private var admDist = new Array[Float](64)
    private var admId = new Array[Int](64)
    private var admSize = 0

    def run(dist: Int => Float, entries: Seq[Int], beam: Int, k: Int,
            neighbors: Int => Array[Int], visit: Int => Boolean, admit: Int => Boolean,
            stats: SearchStats): Array[Candidate] = {
      val cap = math.max(k, beam)
      start(beam, cap)
      val it = entries.iterator
      while (it.hasNext) {
        val e = it.next()
        if (visit(e)) offer(e, dist, admit, stats, beam, cap)
      }
      while (cursor < beamSize) {
        expanded(cursor) = true
        val u = beamId(cursor)
        if (stats != null) stats.nodesExpanded += 1
        val nbrs = neighbors(u)
        var j = 0
        while (j < nbrs.length && nbrs(j) >= 0) {
          val v = nbrs(j)
          if (stats != null) stats.edgesScanned += 1
          if (!(v < mark.length && mark(v) == epoch) && visit(v)) offer(v, dist, admit, stats, beam, cap)
          j += 1
        }
        while (cursor < beamSize && expanded(cursor)) cursor += 1
      }
      val out = new Array[Candidate](math.min(k, admSize))
      var i = 0
      while (i < out.length) { out(i) = Candidate(admId(i), admDist(i)); i += 1 }
      out
    }

    private def start(beam: Int, cap: Int): Unit = {
      if (epoch == Int.MaxValue) { java.util.Arrays.fill(mark, 0); epoch = 0 }
      epoch += 1
      if (beamId.length < beam) {
        beamDist = new Array[Float](beam); beamId = new Array[Int](beam)
        expanded = new Array[Boolean](beam)
      }
      if (admId.length < cap) { admDist = new Array[Float](cap); admId = new Array[Int](cap) }
      beamSize = 0; cursor = 0; admSize = 0
    }

    /** Visits `id` if new: computes its distance once, then inserts it into
      * the beam and, if admitted, into the admitted list.
      */
    private def offer(id: Int, dist: Int => Float, admit: Int => Boolean, stats: SearchStats,
                      beam: Int, cap: Int): Unit = {
      if (id >= mark.length) mark = java.util.Arrays.copyOf(mark, math.max(id + 1, 2 * mark.length))
      if (mark(id) != epoch) {
        mark(id) = epoch
        val d = dist(id)
        if (stats != null) stats.distComputations += 1
        val pos = insert(beamDist, beamId, beamSize, beam, d, id)
        if (pos >= 0) {
          System.arraycopy(expanded, pos, expanded, pos + 1, math.min(beamSize, beam - 1) - pos)
          expanded(pos) = false
          beamSize = math.min(beamSize + 1, beam)
          if (pos < cursor) cursor = pos
        }
        if (admit(id) && insert(admDist, admId, admSize, cap, d, id) >= 0)
          admSize = math.min(admSize + 1, cap)
      }
    }
  }
}
