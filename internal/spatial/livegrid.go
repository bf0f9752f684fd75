package spatial

import (
	"math"

	"mapdr/internal/geo"
)

// Cell identifies one bucket of a LiveGrid: the unit square
// [X·cellSize, (X+1)·cellSize) × [Y·cellSize, (Y+1)·cellSize).
type Cell struct{ X, Y int32 }

// Slot is the grid's per-member bookkeeping — current cell, position in
// the cell's member slice (for O(1) swap-delete), and the exact point
// the member was last placed at (kept so Rebucket can re-derive the
// buckets without asking the caller). It is embedded in the caller's
// own member record, so the write-path hot loop never hashes a member
// key: an update touches at most the Cell-keyed bucket map.
type Slot struct {
	cell Cell
	idx  int32
	in   bool
	pos  geo.Point
}

// InGrid reports whether the member is currently placed.
func (s *Slot) InGrid() bool { return s.in }

// Pos returns the position the member was last placed at.
func (s *Slot) Pos() (geo.Point, bool) { return s.pos, s.in }

// Member is the caller's record type: it hands the grid a pointer to
// the Slot embedded in it. GridSlot must return the same Slot for the
// lifetime of the member.
type Member interface {
	GridSlot() *Slot
}

// LiveGrid is a point index maintained in place by its caller's write
// path, unlike Grid, which is a bulk-built snapshot. Each
// member occupies exactly one cell — the one containing its position —
// and an update only touches the index when the position crosses a
// cell boundary, so a fleet of mostly-quiet or smoothly moving objects
// costs O(moved members) per batch instead of an O(n) rebuild. The
// bookkeeping is intrusive (see Slot): members are stored as the
// caller's own pointers, so queries read candidate records with no map
// lookup and updates hash only the 8-byte Cell key.
//
// LiveGrid deliberately stores no per-cell aggregates beyond
// membership: callers that prune by displacement bounds
// (internal/locserv) own that state, keyed by the Cell values this
// type hands out. It is not goroutine-safe; the caller's shard lock
// provides exclusion.
type LiveGrid[M Member] struct {
	cellSize float64
	cells    map[Cell][]M
	n        int
	// minCell/maxCell bound every cell occupied since the last Rebucket.
	// The bbox grows monotonically — vacated cells do not shrink it — so
	// it is a conservative cap for ring scans, recomputed exactly when
	// the grid is rebucketed.
	minCell, maxCell Cell
	haveCells        bool
	// sat counts members currently resident in edge cells (a coordinate
	// at the int32 boundary, where CellOf saturates) — see Saturated.
	sat       int
	rebuckets int64
}

// NewLiveGrid returns an empty live grid with the given cell size in
// metres.
func NewLiveGrid[M Member](cellSize float64) *LiveGrid[M] {
	if cellSize <= 0 || math.IsInf(cellSize, 0) || math.IsNaN(cellSize) {
		panic("spatial: live grid cell size must be positive and finite")
	}
	return &LiveGrid[M]{
		cellSize: cellSize,
		cells:    make(map[Cell][]M),
	}
}

// CellSize returns the current cell size in metres.
func (g *LiveGrid[M]) CellSize() float64 { return g.cellSize }

// Len returns the number of members in the grid.
func (g *LiveGrid[M]) Len() int { return g.n }

// Cells returns the number of occupied cells.
func (g *LiveGrid[M]) Cells() int { return len(g.cells) }

// Rebuckets returns how many times the grid has been rebucketed.
func (g *LiveGrid[M]) Rebuckets() int64 { return g.rebuckets }

// CellOf returns the cell containing p. Coordinates beyond what int32
// cell indices can address saturate to the edge cells (index
// math.MinInt32 or math.MaxInt32) instead of going through Go's
// implementation-defined out-of-range float→int conversion, which on
// amd64 folds both +huge and −huge to MinInt32 and silently inverts
// query windows derived from the result. CellRect treats edge cells as
// covering the whole saturated half-plane, so the mapping stays
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

// edgeCell reports whether any coordinate of c sits on the int32
// boundary — the cells CellOf saturates out-of-range positions into.
func edgeCell(c Cell) bool {
	return c.X == math.MinInt32 || c.X == math.MaxInt32 ||
		c.Y == math.MinInt32 || c.Y == math.MaxInt32
}

// CellRect returns the rectangle covered by cell c. Edge cells absorb
// every coordinate CellOf saturated, so their rectangle extends to
// infinity on the boundary side — conservative for pruning: an edge
// cell is never pruned away from a query its residents could serve.
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

// Saturated returns how many members are resident in edge cells. While
// nonzero, an edge cell's rectangle does not bracket its residents'
// positions to within one cell size, so geometric lower bounds derived
// from cell indices (ring distances in particular) are not trustworthy
// near those members; callers should answer by scan until the members
// rebucket or move back into range.
func (g *LiveGrid[M]) Saturated() int { return g.sat }

// CellLen returns the number of members in cell c.
func (g *LiveGrid[M]) CellLen(c Cell) int { return len(g.cells[c]) }

// CellMembers returns the members in cell c. The slice is the grid's
// own storage: callers must not retain or mutate it.
func (g *LiveGrid[M]) CellMembers(c Cell) []M { return g.cells[c] }

// Update places m at p, inserting it if absent and moving it between
// cells only when p crosses a cell boundary. It returns m's previous
// and current cells; existed is false on first insert (prev is then
// zero and meaningless). The caller detects a cell move as
// existed && prev != cur. The same-cell common case costs no map write.
func (g *LiveGrid[M]) Update(m M, p geo.Point) (prev, cur Cell, existed bool) {
	s := m.GridSlot()
	cur = g.CellOf(p)
	if s.in {
		prev = s.cell
		s.pos = p
		if prev == cur {
			return prev, cur, true
		}
		g.removeFromCell(prev, s.idx)
		g.place(m, s, cur)
		return prev, cur, true
	}
	s.pos = p
	g.place(m, s, cur)
	g.n++
	return cur, cur, false
}

// place appends m to cell c and records its slot.
func (g *LiveGrid[M]) place(m M, s *Slot, c Cell) {
	members := g.cells[c]
	s.cell, s.idx, s.in = c, int32(len(members)), true
	g.cells[c] = append(members, m)
	if edgeCell(c) {
		g.sat++
	}
	g.extendCellBBox(c)
}

// Remove deletes m, returning the cell it occupied.
func (g *LiveGrid[M]) Remove(m M) (Cell, bool) {
	s := m.GridSlot()
	if !s.in {
		return Cell{}, false
	}
	g.removeFromCell(s.cell, s.idx)
	s.in = false
	g.n--
	return s.cell, true
}

// removeFromCell swap-deletes the member at idx from cell c, fixing the
// displaced member's recorded slot in place (no key hashing).
func (g *LiveGrid[M]) removeFromCell(c Cell, idx int32) {
	members := g.cells[c]
	last := int32(len(members)) - 1
	if idx != last {
		moved := members[last]
		members[idx] = moved
		moved.GridSlot().idx = idx
	}
	members = members[:last]
	if len(members) == 0 {
		delete(g.cells, c)
	} else {
		g.cells[c] = members
	}
	if edgeCell(c) {
		g.sat--
	}
}

// extendCellBBox grows the monotone occupied-cell bbox to include c.
func (g *LiveGrid[M]) extendCellBBox(c Cell) {
	if !g.haveCells {
		g.minCell, g.maxCell, g.haveCells = c, c, true
		return
	}
	if c.X < g.minCell.X {
		g.minCell.X = c.X
	}
	if c.Y < g.minCell.Y {
		g.minCell.Y = c.Y
	}
	if c.X > g.maxCell.X {
		g.maxCell.X = c.X
	}
	if c.Y > g.maxCell.Y {
		g.maxCell.Y = c.Y
	}
}

// CellExtent returns a bbox over every cell occupied since the last
// Rebucket (conservative: cells vacated since then may still be inside).
// ok is false while the grid has never held a member.
func (g *LiveGrid[M]) CellExtent() (min, max Cell, ok bool) {
	return g.minCell, g.maxCell, g.haveCells
}

// Extent returns the exact bounding rectangle of the stored positions,
// in O(n).
func (g *LiveGrid[M]) Extent() geo.Rect {
	b := geo.EmptyRect()
	for _, members := range g.cells {
		for _, m := range members {
			b = b.ExtendPoint(m.GridSlot().pos)
		}
	}
	return b
}

// VisitCells calls fn for every occupied cell until fn returns false.
// The member slice is the grid's own storage: callers must not retain or
// mutate it. Iteration order is unspecified (map order).
func (g *LiveGrid[M]) VisitCells(fn func(c Cell, members []M) bool) {
	for c, members := range g.cells {
		if !fn(c, members) {
			return
		}
	}
}

// VisitRing calls fn for every occupied cell on the square ring at
// Chebyshev distance ring from center, until fn returns false. It
// reports whether the visit ran to completion. Candidate cells are
// clipped to the occupied-cell bbox — nothing can live outside it —
// which caps the per-ring work at the bbox perimeter and keeps the
// int64 ring arithmetic from wrapping the int32 cell coordinates.
func (g *LiveGrid[M]) VisitRing(center Cell, ring int64, fn func(c Cell, members []M) bool) bool {
	if !g.haveCells {
		return true
	}
	if ring == 0 {
		if m := g.cells[center]; len(m) > 0 {
			return fn(center, m)
		}
		return true
	}
	cx, cy := int64(center.X), int64(center.Y)
	xLo, xHi := maxI64(-ring, int64(g.minCell.X)-cx), minI64(ring, int64(g.maxCell.X)-cx)
	yLo, yHi := maxI64(-ring, int64(g.minCell.Y)-cy), minI64(ring, int64(g.maxCell.Y)-cy)
	// dx/dy stay inside the bbox offsets, so cx+dx / cy+dy fit in int32.
	visit := func(dx, dy int64) bool {
		c := Cell{int32(cx + dx), int32(cy + dy)}
		if m := g.cells[c]; len(m) > 0 {
			return fn(c, m)
		}
		return true
	}
	for dx := xLo; dx <= xHi; dx++ {
		if dx == -ring || dx == ring {
			for dy := yLo; dy <= yHi; dy++ {
				if !visit(dx, dy) {
					return false
				}
			}
		} else {
			if -ring >= yLo && -ring <= yHi && !visit(dx, -ring) {
				return false
			}
			if ring >= yLo && ring <= yHi && !visit(dx, ring) {
				return false
			}
		}
	}
	return true
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Rebucket redistributes every member into buckets of the new cell
// size, using the positions recorded by Update, and recomputes the
// occupied-cell bbox exactly. Callers that keep per-cell aggregates
// must rebuild them afterwards: every Cell value handed out before is
// invalidated.
func (g *LiveGrid[M]) Rebucket(cellSize float64) {
	if cellSize <= 0 || math.IsInf(cellSize, 0) || math.IsNaN(cellSize) {
		panic("spatial: live grid cell size must be positive and finite")
	}
	all := make([]M, 0, g.n)
	for _, members := range g.cells {
		all = append(all, members...)
	}
	g.cellSize = cellSize
	g.cells = make(map[Cell][]M, len(g.cells))
	g.haveCells = false
	g.sat = 0
	for _, m := range all {
		s := m.GridSlot()
		g.place(m, s, g.CellOf(s.pos))
	}
	g.rebuckets++
}
