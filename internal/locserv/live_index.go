package locserv

import (
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/spatial"
)

// Live spatial index: write-path maintenance and the bound-ordered
// search.
//
// Each shard keeps a spatial.LiveGrid over the last reports of its
// bounded-predictor objects, maintained in place by the write path: an
// accepted update overwrites the object's report summary (position,
// displacement-bound speed, report time) and moves it between cells
// only when the report crosses a cell boundary. Cells are sized for
// about liveCellResidents objects and sit in one dense table with their
// rectangle, the fold (max bound speed, oldest/newest report time) of
// their residents and the residents' summaries inline.
//
// The protocol lets objects go quiet, so an object can have drifted
// v·|t−T| from its report by query time t — hundreds of metres for the
// fast and stale, nothing for the slow and fresh. A query therefore
// bounds twice before it pays for Position(t): a cell can matter only
// if its rectangle, grown by the fold's reach, meets the query; a
// resident of such a cell only if its own report, grown by its own
// reach, does. A range query applies both tests in one pass over the
// table. A k-nearest query turns them into lower bounds on distance
// (lowerBound), visits cells in ascending bound order and stops when
// the next bound strictly exceeds the current k-th best distance —
// strictly, because PosLess breaks distance ties by id and an
// equal-distance candidate can still win. Candidates that survive are
// evaluated exactly like the scan path, and the retained set is the
// top-k under the total order PosLess, which is insertion-order
// independent: answers are bit-identical to the scan oracles.
//
// The pass over the cell summaries is O(cells per shard) per query —
// the known scaling term; a pyramid of folds over the table is the
// follow-up once a workload shows it.
//
// Objects whose predictor admits no displacement bound (tracked by
// shard.unbounded) can be anywhere regardless of their report, so while
// any are present the shard answers from the scan path — counted in
// IndexHealth.ScanFallbacks.

// liveCellInit is the cell size in metres a shard's grid starts with
// before the first population-based resize.
const liveCellInit = 256.0

// liveResizeMin is the grid population below which the cell size is
// never revisited: tiny shards answer queries cheaply at any bucketing.
const liveResizeMin = 32

// liveCellResidents is the cell population a resize aims for: enough
// that the per-query pass over the cell summaries is short, few enough
// that the per-resident tests inside a visited cell stay a cache line
// or ten.
const liveCellResidents = 16

// noteAppliedLocked maintains the live index after e's server accepted
// a new report. Caller holds the shard write lock.
func (sh *shard) noteAppliedLocked(e *objEntry) {
	if !e.bounded {
		return // scan path covers unbounded objects; keep them out of the grid
	}
	rep, ok := e.srv.LastReport()
	if !ok {
		return
	}
	vb := e.srv.Predictor().DisplacementBound(rep)
	if !(vb > 0) {
		vb = 0 // a negative (or NaN) bound speed drifts no further than the slack
	}
	sh.grid.Update(e, spatial.Report{Pos: rep.Pos, V: vb, T: rep.T})
}

// mutatedLocked closes a write-lock hold that changed the shard: it
// advances the epoch readers assert index stability on, revisits the
// cell size and publishes the grid's maintenance counts.
func (sh *shard) mutatedLocked() {
	sh.epoch++
	sh.maybeResizeLocked()
	moves, refolds := sh.grid.TakeCounts()
	sh.health.CellMoves.Add(moves)
	sh.health.BoundRecomputes.Add(refolds)
}

// liveCellSize is the cell size that puts about liveCellResidents of n
// objects spread over a w-metre-wide extent in each cell.
func liveCellSize(w float64, n int) float64 {
	return w / math.Sqrt(float64(n)/liveCellResidents)
}

// maybeResizeLocked revisits the grid cell size after mutations. It is
// O(1) unless a resize is due: population doubled or halved since the
// last sizing, or the occupied extent drifted far from what the current
// cell size was chosen for.
func (sh *shard) maybeResizeLocked() {
	n := sh.grid.Len()
	if n < liveResizeMin {
		return
	}
	if n >= 2*sh.sizedAt || 2*n <= sh.sizedAt {
		sh.resizeLocked(false)
		return
	}
	// Extent drift at stable population: compare the current cell size
	// against what the (conservative, monotone) occupied-cell bbox asks
	// for. The bbox only resets at Rebucket, so force the rebucket when
	// this trigger fires — otherwise a stale bbox would re-fire it every
	// batch.
	minC, maxC, ok := sh.grid.CellExtent()
	if !ok {
		return
	}
	// Spans in int64: the bbox can straddle most of the int32 cell range.
	span := max(int64(maxC.X)-int64(minC.X), int64(maxC.Y)-int64(minC.Y))
	cur := sh.grid.CellSize()
	if want := liveCellSize(float64(span+1)*cur, n); want > 2*cur || want < cur/2 {
		sh.resizeLocked(true)
	}
}

// resizeLocked rebuckets the grid to liveCellSize over the exact
// occupied extent. Unless forced, a rebucket within 1.5× of the current
// size is skipped — the bucketing is still fine and the O(n) rebuild is
// not free.
func (sh *shard) resizeLocked(force bool) {
	n := sh.grid.Len()
	sh.sizedAt = n
	b := sh.grid.Extent()
	cell := liveCellSize(math.Max(b.Width(), b.Height()), n)
	if cell <= 0 || math.IsInf(cell, 0) || math.IsNaN(cell) {
		cell = 1
	}
	if cur := sh.grid.CellSize(); !force && cell < cur*1.5 && cell > cur/1.5 {
		return
	}
	sh.grid.Rebucket(cell)
}

// lowerBound returns a lower bound on the distance Service.Nearest will
// compute for anything within reach of a point (or rectangle) at
// computed distance d from the query point. Distances are compared as
// computed, so the bound gives way by the rounding two hypot
// evaluations can differ by — a few ulps of d, which outgrows the 1 m
// slack in reach once coordinates pass 1e15 — and a bound that is not a
// number (an infinite query coordinate against an edge cell) prunes
// nothing.
func lowerBound(d, reach float64) float64 {
	b := d - reach - d*0x1p-48
	if b != b {
		return math.Inf(-1)
	}
	return b
}

// cellBound is one entry of a k-NN query's frontier: a cell of the
// shard's table and the lower bound on its residents' distances.
type cellBound struct {
	bound float64
	cell  int32
}

func cellBoundLess(a, b cellBound) bool { return a.bound < b.bound }

// posWorse orders a bounded result heap: the root is the worst retained
// hit, so a better candidate replaces it in O(log k).
func posWorse(a, b ObjectPos) bool { return PosLess(b, a) }

// heapUp and heapDown restore the order of a binary heap whose root is
// the least element under less, after h[i] moved toward the root or the
// leaves. They are generic over the element so neither the result heap
// nor the frontier boxes its entries the way container/heap does.
func heapUp[T any](h []T, i int, less func(a, b T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func heapDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// nearestQuery is what one fan-out worker carries through the shards it
// takes for a k-nearest query: one heap of the best hits so far, so each
// shard prunes against the k-th distance of every shard before it, and
// the scratch and tallies that would otherwise be allocated and
// published per shard.
type nearestQuery struct {
	p geo.Point
	k int
	t float64
	// heap holds up to k hits, rooted at the worst (posWorse).
	heap     []ObjectPos
	frontier []cellBound
	queryTally
}

// kth returns the distance a candidate must not exceed to enter the
// answer: the k-th best so far, or +Inf while fewer than k are held.
func (q *nearestQuery) kth() float64 {
	if len(q.heap) < q.k {
		return math.Inf(1)
	}
	return q.heap[0].Dist
}

// offer evaluates e at the query time and keeps it if it is among the k
// best seen.
func (q *nearestQuery) offer(e *objEntry) {
	pos, ok := e.srv.Position(q.t)
	if !ok {
		return
	}
	op := ObjectPos{ID: e.id, Pos: pos, Dist: q.p.Dist(pos), Seq: e.srv.Seq()}
	if len(q.heap) < q.k {
		q.heap = append(q.heap, op)
		heapUp(q.heap, len(q.heap)-1, posWorse)
	} else if PosLess(op, q.heap[0]) {
		q.heap[0] = op
		heapDown(q.heap, 0, posWorse)
	}
}

// nearestIndexedLocked feeds q from the shard's live index by
// bound-ordered search (see the file comment). Caller holds the read
// lock and has checked unbounded == 0.
func (sh *shard) nearestIndexedLocked(q *nearestQuery) {
	epoch := sh.epoch
	cells := sh.grid.Cells()
	fr := q.frontier[:0]
	kth := q.kth()
	for i := range cells {
		c := &cells[i]
		if b := lowerBound(c.Rect.DistanceTo(q.p), c.Reach(q.t)); !(b > kth) {
			fr = append(fr, cellBound{b, int32(i)})
		}
	}
	for i := len(fr)/2 - 1; i >= 0; i-- {
		heapDown(fr, i, cellBoundLess)
	}
	for len(fr) > 0 && !(fr[0].bound > q.kth()) {
		c := &cells[fr[0].cell]
		last := len(fr) - 1
		fr[0], fr = fr[last], fr[:last]
		heapDown(fr, 0, cellBoundLess)
		q.cells++
		for j := range c.Res {
			r := &c.Res[j]
			if lowerBound(q.p.Dist(r.Pos), r.Reach(q.t)) > q.kth() {
				continue
			}
			q.evaluated++
			q.offer(r.M)
		}
	}
	q.frontier = fr
	if sh.epoch != epoch {
		panic("locserv: index mutated under read lock")
	}
}

// withinQuery is what one fan-out worker carries through the shards it
// takes for a range query: one output slice and the tallies.
type withinQuery struct {
	r   geo.Rect
	t   float64
	out []ObjectPos
	queryTally
}

// offer evaluates e at the query time and keeps it if it is inside the
// window.
func (q *withinQuery) offer(e *objEntry) {
	if pos, ok := e.srv.Position(q.t); ok && q.r.Contains(pos) {
		q.out = append(q.out, ObjectPos{ID: e.id, Pos: pos, Seq: e.srv.Seq()})
	}
}

// withinIndexedLocked feeds q from the shard's live index. Caller holds
// the read lock and has checked unbounded == 0.
//
// Soundness: a resident is within Report.Reach(t) of its reported
// position, which LiveCell.Reach(t) dominates and which lies inside the
// cell rectangle — so it can be a hit only if the window grown by its
// own reach contains its report, and its cell can hold a hit only if
// the window grown by the cell's reach meets the cell rectangle.
func (sh *shard) withinIndexedLocked(q *withinQuery) {
	epoch := sh.epoch
	cells := sh.grid.Cells()
	for i := range cells {
		c := &cells[i]
		if !q.r.Expand(c.Reach(q.t)).Intersects(c.Rect) {
			continue
		}
		q.cells++
		for j := range c.Res {
			r := &c.Res[j]
			if !q.r.Expand(r.Reach(q.t)).Contains(r.Pos) {
				continue
			}
			q.evaluated++
			q.offer(r.M)
		}
	}
	if sh.epoch != epoch {
		panic("locserv: index mutated under read lock")
	}
}
