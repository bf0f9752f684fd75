package spatial

import (
	"math"

	"mapdr/internal/geo"
)

// Cell identifies one bucket of a LiveGrid: the unit square
// [X·cellSize, (X+1)·cellSize) × [Y·cellSize, (Y+1)·cellSize).
type Cell struct{ X, Y int32 }

// Report is what a LiveGrid keeps inline per member: where and when the
// member last reported, and the speed bounding how fast it can have
// moved away since.
type Report struct {
	Pos geo.Point
	V   float64 // displacement-bound speed, m/s
	T   float64 // report time, s
}

// Reach returns how far the member can be from Pos at time t:
// V·|t−T| + 1 m. The 1 m absorbs map-matching rounding between a
// report's position and its link offset point, and float rounding of
// the predicted position; a predictor run backwards (t < T) moves at
// most V·(T−t) as well.
func (r *Report) Reach(t float64) float64 { return reach(r.V, math.Abs(t-r.T)) }

// reach is the drift radius after dt seconds at up to v m/s. A NaN or
// negative dt counts as 0, so the radius never collapses below the slack.
func reach(v, dt float64) float64 {
	if !(dt > 0) {
		dt = 0
	}
	return v*dt + 1
}

// Slot is the grid's per-member bookkeeping — the member's cell in the
// dense cell table and its position in that cell's resident slice (for
// O(1) swap-delete). It is embedded in the caller's own member record,
// so the write path never hashes a member key: an update that stays in
// its cell touches no map at all.
type Slot struct {
	cell, idx int32
	in        bool
}

// Member is the caller's record type: it hands the grid a pointer to
// the Slot embedded in it. GridSlot must return the same Slot for the
// lifetime of the member.
type Member interface {
	GridSlot() *Slot
}

// Resident is one member of a cell with its report summary inline, so a
// query rules a resident in or out without touching the member record.
type Resident[M any] struct {
	Report
	M M
}

// LiveCell is one occupied cell: its rectangle, the fold of its
// residents' reports, and the residents themselves, contiguous.
type LiveCell[M any] struct {
	// Rect is the cell's rectangle (see LiveGrid.CellRect).
	Rect geo.Rect
	// MaxV, MinT and MaxT fold the residents' reports: the fastest bound
	// speed and the oldest and newest report time. The fold is monotone —
	// an update only loosens it — and re-derived exactly when a resident
	// leaves and whenever the cell has absorbed more updates than it has
	// residents, so maintenance stays O(1) amortised per update while a
	// steadily reporting fleet keeps tight folds.
	MaxV, MinT, MaxT float64
	Res              []Resident[M]

	id    Cell
	folds int32 // updates absorbed since the fold was last exact
}

// Reach returns how far any resident can be from its reported position
// — hence from Rect — at time t. It dominates every resident's own
// Report.Reach.
func (c *LiveCell[M]) Reach(t float64) float64 {
	dt := t - c.MinT
	if d := c.MaxT - t; d > dt {
		dt = d
	}
	return reach(c.MaxV, dt)
}

// LiveGrid is a point index over moving members' last reports,
// maintained in place by its caller's write path, unlike Grid, which is
// a bulk-built snapshot. Each member occupies exactly one cell — the one
// containing its reported position — and an update only moves it when
// the position crosses a cell boundary, so a fleet of mostly-quiet or
// smoothly moving objects costs O(moved members) per batch instead of an
// O(n) rebuild.
//
// The read side is one dense table (Cells): every occupied cell with
// its rectangle, its fold and its residents' reports inline. A query
// makes one linear pass over the cell summaries, bounds each cell by
// Rect and Reach, and bounds each resident of a surviving cell by its
// own Report before it pays for evaluating the member — no map lookup
// and no pointer chase until a candidate survives both.
//
// LiveGrid is not goroutine-safe; the caller's shard lock provides
// exclusion.
type LiveGrid[M Member] struct {
	cellSize float64
	cells    []LiveCell[M]  // every entry has at least one resident
	index    map[Cell]int32 // cell id -> position in cells
	n        int
	// minCell/maxCell bound every cell occupied since the last Rebucket.
	// The bbox grows monotonically — vacated cells do not shrink it — and
	// is recomputed exactly when the grid is rebucketed.
	minCell, maxCell Cell
	haveCells        bool
	rebuckets        int64
	// moves and refolds tally cell-boundary crossings and exact fold
	// re-derivations since the last TakeCounts.
	moves, refolds int64
}

// NewLiveGrid returns an empty live grid with the given cell size in
// metres.
func NewLiveGrid[M Member](cellSize float64) *LiveGrid[M] {
	checkCellSize(cellSize)
	return &LiveGrid[M]{cellSize: cellSize, index: make(map[Cell]int32)}
}

func checkCellSize(cellSize float64) {
	if cellSize <= 0 || math.IsInf(cellSize, 0) || math.IsNaN(cellSize) {
		panic("spatial: live grid cell size must be positive and finite")
	}
}

// CellSize returns the current cell size in metres.
func (g *LiveGrid[M]) CellSize() float64 { return g.cellSize }

// Len returns the number of members in the grid.
func (g *LiveGrid[M]) Len() int { return g.n }

// Cells returns the dense table of occupied cells, in no particular
// order. It is the grid's own storage: callers must not retain or
// mutate it.
func (g *LiveGrid[M]) Cells() []LiveCell[M] { return g.cells }

// Rebuckets returns how many times the grid has been rebucketed.
func (g *LiveGrid[M]) Rebuckets() int64 { return g.rebuckets }

// TakeCounts returns how many updates crossed a cell boundary and how
// many folds were re-derived exactly since the previous call.
func (g *LiveGrid[M]) TakeCounts() (moves, refolds int64) {
	moves, refolds = g.moves, g.refolds
	g.moves, g.refolds = 0, 0
	return moves, refolds
}

// CellOf returns the cell containing p. Coordinates beyond what int32
// cell indices can address saturate to the edge cells (index
// math.MinInt32 or math.MaxInt32) instead of going through Go's
// implementation-defined out-of-range float→int conversion, which on
// amd64 folds both +huge and −huge to MinInt32. CellRect treats edge
// cells as covering the whole saturated half-plane, so the mapping stays
// conservative for pruning.
func (g *LiveGrid[M]) CellOf(p geo.Point) Cell {
	return Cell{cellCoord(p.X / g.cellSize), cellCoord(p.Y / g.cellSize)}
}

// cellCoord is floor(v) saturated to the int32 range; NaN maps to 0.
func cellCoord(v float64) int32 {
	f := math.Floor(v)
	if f >= math.MaxInt32 {
		return math.MaxInt32
	}
	if f <= math.MinInt32 {
		return math.MinInt32
	}
	if math.IsNaN(f) {
		return 0
	}
	return int32(f)
}

// CellRect returns the rectangle covered by cell c. Edge cells absorb
// every coordinate CellOf saturated, so their rectangle extends to
// infinity on the boundary side: its distance to any query point on
// that side is zero, and an edge cell is never pruned away from a query
// its residents could serve.
func (g *LiveGrid[M]) CellRect(c Cell) geo.Rect {
	r := geo.Rect{
		Min: geo.Pt(float64(c.X)*g.cellSize, float64(c.Y)*g.cellSize),
		Max: geo.Pt((float64(c.X)+1)*g.cellSize, (float64(c.Y)+1)*g.cellSize),
	}
	if c.X == math.MinInt32 {
		r.Min.X = math.Inf(-1)
	} else if c.X == math.MaxInt32 {
		r.Max.X = math.Inf(1)
	}
	if c.Y == math.MinInt32 {
		r.Min.Y = math.Inf(-1)
	} else if c.Y == math.MaxInt32 {
		r.Max.Y = math.Inf(1)
	}
	return r
}

// Update records m's new report, inserting m if absent and moving it
// between cells only when the position crosses a cell boundary. The
// same-cell common case overwrites the resident's summary and loosens
// the cell's fold in place, re-deriving it once the cell has absorbed
// more such updates than it has residents.
func (g *LiveGrid[M]) Update(m M, r Report) {
	s := m.GridSlot()
	id := g.CellOf(r.Pos)
	if s.in {
		if c := &g.cells[s.cell]; c.id == id {
			c.Res[s.idx].Report = r
			c.loosen(&r)
			if c.folds++; int(c.folds) > len(c.Res) {
				g.refold(c)
			}
			return
		}
		g.evict(s)
		g.moves++
	} else {
		g.n++
	}
	g.place(m, s, id, r)
}

// Remove deletes m, reporting whether it was present.
func (g *LiveGrid[M]) Remove(m M) bool {
	s := m.GridSlot()
	if !s.in {
		return false
	}
	g.evict(s)
	g.n--
	return true
}

// place appends m to cell id — creating the cell if it is unoccupied —
// and records its slot.
func (g *LiveGrid[M]) place(m M, s *Slot, id Cell, r Report) {
	ci, ok := g.index[id]
	if !ok {
		ci = int32(len(g.cells))
		g.index[id] = ci
		g.cells = append(g.cells, LiveCell[M]{Rect: g.CellRect(id), id: id, MinT: math.Inf(1), MaxT: math.Inf(-1)})
		g.extendCellBBox(id)
	}
	c := &g.cells[ci]
	s.cell, s.idx, s.in = ci, int32(len(c.Res)), true
	c.Res = append(c.Res, Resident[M]{Report: r, M: m})
	c.loosen(&r)
}

// evict swap-deletes the member recorded in s from its cell, fixing the
// displaced resident's slot in place. The cell's fold is re-derived so
// it can tighten past the evicted report; a cell left empty is
// swap-deleted from the dense table the same way.
func (g *LiveGrid[M]) evict(s *Slot) {
	c := &g.cells[s.cell]
	last := len(c.Res) - 1
	if int(s.idx) != last {
		c.Res[s.idx] = c.Res[last]
		c.Res[s.idx].M.GridSlot().idx = s.idx
	}
	c.Res[last] = Resident[M]{}
	c.Res = c.Res[:last]
	s.in = false
	if last > 0 {
		g.refold(c)
		return
	}
	delete(g.index, c.id)
	tail := int32(len(g.cells) - 1)
	if s.cell != tail {
		*c = g.cells[tail]
		g.index[c.id] = s.cell
		for i := range c.Res {
			c.Res[i].M.GridSlot().cell = s.cell
		}
	}
	g.cells[tail] = LiveCell[M]{}
	g.cells = g.cells[:tail]
}

// loosen widens c's fold to cover r; an exact fold stays exact when r is
// a new resident's report.
func (c *LiveCell[M]) loosen(r *Report) {
	if r.V > c.MaxV {
		c.MaxV = r.V
	}
	if r.T < c.MinT {
		c.MinT = r.T
	}
	if r.T > c.MaxT {
		c.MaxT = r.T
	}
}

// refold re-derives c's fold exactly from its residents.
func (g *LiveGrid[M]) refold(c *LiveCell[M]) {
	c.MaxV, c.MinT, c.MaxT, c.folds = 0, math.Inf(1), math.Inf(-1), 0
	for i := range c.Res {
		c.loosen(&c.Res[i].Report)
	}
	g.refolds++
}

// extendCellBBox grows the monotone occupied-cell bbox to include c.
func (g *LiveGrid[M]) extendCellBBox(c Cell) {
	if !g.haveCells {
		g.minCell, g.maxCell, g.haveCells = c, c, true
		return
	}
	g.minCell = Cell{min(g.minCell.X, c.X), min(g.minCell.Y, c.Y)}
	g.maxCell = Cell{max(g.maxCell.X, c.X), max(g.maxCell.Y, c.Y)}
}

// CellExtent returns a bbox over every cell occupied since the last
// Rebucket (conservative: cells vacated since then may still be inside).
// ok is false while the grid has never held a member.
func (g *LiveGrid[M]) CellExtent() (min, max Cell, ok bool) {
	return g.minCell, g.maxCell, g.haveCells
}

// Extent returns the exact bounding rectangle of the reported
// positions, in O(n).
func (g *LiveGrid[M]) Extent() geo.Rect {
	b := geo.EmptyRect()
	for i := range g.cells {
		for j := range g.cells[i].Res {
			b = b.ExtendPoint(g.cells[i].Res[j].Pos)
		}
	}
	return b
}

// Rebucket redistributes every member into cells of the new size from
// the reports recorded by Update, rebuilding the cell table (folds exact,
// occupied-cell bbox exact). Every index into Cells handed out before is
// invalidated.
func (g *LiveGrid[M]) Rebucket(cellSize float64) {
	checkCellSize(cellSize)
	old := g.cells
	g.cellSize = cellSize
	g.cells = make([]LiveCell[M], 0, len(old))
	g.index = make(map[Cell]int32, len(old))
	g.haveCells = false
	for i := range old {
		for _, r := range old[i].Res {
			g.place(r.M, r.M.GridSlot(), g.CellOf(r.Pos), r.Report)
		}
	}
	g.rebuckets++
}
