package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mapdr/internal/geo"
)

// tm is the test member type: a keyed record with the intrusive slot,
// the way internal/locserv embeds one in its object entries.
type tm struct {
	key  string
	slot Slot
}

func (m *tm) GridSlot() *Slot { return &m.slot }

// checkLiveGridInvariants verifies the grid's bookkeeping against the
// reference report map: every member in exactly one cell of the dense
// table, slots and the cell index consistent, counts matching, the
// inline report the last one given, every fold covering its residents,
// and the occupied-cell bbox covering every cell.
func checkLiveGridInvariants(t *testing.T, g *LiveGrid[*tm], ref map[*tm]Report) {
	t.Helper()
	if g.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ref))
	}
	if len(g.index) != len(g.Cells()) {
		t.Fatalf("index holds %d cells, table %d", len(g.index), len(g.Cells()))
	}
	seen := 0
	minC, maxC, haveExt := g.CellExtent()
	for ci := range g.Cells() {
		cell := &g.Cells()[ci]
		c := cell.id
		if len(cell.Res) == 0 {
			t.Fatalf("cell %v kept with zero residents", c)
		}
		if at, ok := g.index[c]; !ok || int(at) != ci {
			t.Fatalf("cell %v at table position %d, index says %d,%v", c, ci, at, ok)
		}
		if cell.Rect != g.CellRect(c) {
			t.Fatalf("cell %v caches rect %v, want %v", c, cell.Rect, g.CellRect(c))
		}
		if !haveExt || c.X < minC.X || c.X > maxC.X || c.Y < minC.Y || c.Y > maxC.Y {
			t.Fatalf("cell %v outside CellExtent [%v,%v]", c, minC, maxC)
		}
		for idx, res := range cell.Res {
			m := res.M
			r, ok := ref[m]
			if !ok {
				t.Fatalf("grid holds removed member %q", m.key)
			}
			if res.Report != r {
				t.Fatalf("member %q carries report %+v, want %+v", m.key, res.Report, r)
			}
			if g.CellOf(r.Pos) != c {
				t.Fatalf("member %q in cell %v, position %v maps to %v", m.key, c, r.Pos, g.CellOf(r.Pos))
			}
			if m.slot.cell != int32(ci) || m.slot.idx != int32(idx) || !m.slot.in {
				t.Fatalf("member %q slot %+v, want cell=%d idx=%d in=true", m.key, m.slot, ci, idx)
			}
			if r.V > cell.MaxV || r.T < cell.MinT || r.T > cell.MaxT {
				t.Fatalf("cell %v fold (%v, %v, %v) misses resident report %+v", c, cell.MaxV, cell.MinT, cell.MaxT, r)
			}
			// CellOf/CellRect agree only up to float rounding at cell
			// boundaries (the index's ≥1 m reach slack absorbs this).
			if !cell.Rect.Expand(1e-9).Contains(r.Pos) {
				t.Fatalf("position %v outside CellRect(%v) = %v", r.Pos, c, cell.Rect)
			}
			seen++
		}
	}
	if seen != len(ref) {
		t.Fatalf("cells hold %d members, want %d", seen, len(ref))
	}
}

// TestLiveGridRandomOps drives random updates, moves, teleports and
// removals against a reference map, checking full invariants throughout
// — including swap-delete slot fixing and exact cell-boundary
// positions.
func TestLiveGridRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewLiveGrid[*tm](100)
	ref := map[*tm]Report{}
	members := make([]*tm, 60)
	for i := range members {
		members[i] = &tm{key: fmt.Sprintf("k-%03d", i)}
	}
	randPos := func() geo.Point {
		if rng.Intn(4) == 0 {
			// Exactly on a cell boundary (multiples of the cell size),
			// sometimes nudged by one ulp to sit epsilon-inside/outside.
			p := geo.Pt(float64(rng.Intn(21)-10)*100, float64(rng.Intn(21)-10)*100)
			switch rng.Intn(3) {
			case 1:
				p.X = math.Nextafter(p.X, math.Inf(1))
			case 2:
				p.X = math.Nextafter(p.X, math.Inf(-1))
			}
			return p
		}
		return geo.Pt(rng.Float64()*4000-2000, rng.Float64()*4000-2000)
	}
	for step := 0; step < 3000; step++ {
		m := members[rng.Intn(60)]
		switch rng.Intn(10) {
		case 0: // remove
			ok := g.Remove(m)
			if _, refOk := ref[m]; ok != refOk {
				t.Fatalf("Remove(%s) = %v, ref has %v", m.key, ok, refOk)
			}
			delete(ref, m)
		default: // insert, small move, or teleport
			r := Report{Pos: randPos(), V: rng.Float64() * 30, T: float64(step) - rng.Float64()*100}
			old, existed := ref[m]
			g.Update(m, r)
			moves, _ := g.TakeCounts()
			if want := existed && g.CellOf(old.Pos) != g.CellOf(r.Pos); (moves == 1) != want || moves > 1 {
				t.Fatalf("Update(%s) counted %d cell moves, crossed=%v", m.key, moves, want)
			}
			ref[m] = r
		}
		if step%101 == 0 {
			checkLiveGridInvariants(t, g, ref)
		}
	}
	checkLiveGridInvariants(t, g, ref)

	// Remove everything; the grid must drain to empty cells.
	for m := range ref {
		if !g.Remove(m) {
			t.Fatalf("final Remove(%s) missed", m.key)
		}
		if g.Remove(m) {
			t.Fatalf("removed member %s still in the grid", m.key)
		}
	}
	if g.Len() != 0 || len(g.Cells()) != 0 || len(g.index) != 0 {
		t.Fatalf("drained grid: Len=%d Cells=%d index=%d", g.Len(), len(g.Cells()), len(g.index))
	}
}

// TestLiveGridCellMath pins the floor bucketing across the origin and
// the CellRect inverse.
func TestLiveGridCellMath(t *testing.T) {
	g := NewLiveGrid[*tm](50)
	cases := []struct {
		p geo.Point
		c Cell
	}{
		{geo.Pt(0, 0), Cell{0, 0}},
		{geo.Pt(49.999, 49.999), Cell{0, 0}},
		{geo.Pt(50, 50), Cell{1, 1}},
		{geo.Pt(-0.001, 0), Cell{-1, 0}},
		{geo.Pt(-50, -50), Cell{-1, -1}},
		{geo.Pt(-50.001, -0.001), Cell{-2, -1}},
	}
	for _, tc := range cases {
		if got := g.CellOf(tc.p); got != tc.c {
			t.Errorf("CellOf(%v) = %v, want %v", tc.p, got, tc.c)
		}
		r := g.CellRect(tc.c)
		if !r.Contains(tc.p) {
			t.Errorf("CellRect(%v) = %v misses %v", tc.c, r, tc.p)
		}
	}
}

// TestLiveGridFolds pins the fold maintenance: an update only loosens
// its cell's fold, the fold is exact again once the cell has absorbed
// more updates than it has residents and whenever a resident leaves,
// and Reach covers queries before, between and after the report times.
func TestLiveGridFolds(t *testing.T) {
	g := NewLiveGrid[*tm](100)
	a, b := &tm{key: "a"}, &tm{key: "b"}
	g.Update(a, Report{Pos: geo.Pt(10, 10), V: 20, T: 5})
	g.Update(b, Report{Pos: geo.Pt(20, 20), V: 3, T: 50})
	fold := func() [3]float64 {
		c := &g.Cells()[0]
		return [3]float64{c.MaxV, c.MinT, c.MaxT}
	}
	if got := fold(); got != [3]float64{20, 5, 50} {
		t.Fatalf("fold after two inserts = %v", got)
	}
	c := &g.Cells()[0]
	for _, tc := range []struct{ t, want float64 }{
		{60, 20*55 + 1}, // after both: the oldest report sets the age
		{0, 20*50 + 1},  // before both: run backwards from the newest
		{30, 20*25 + 1}, // between
		{math.NaN(), 1}, // never below the slack
	} {
		if got := c.Reach(tc.t); got != tc.want {
			t.Errorf("cell Reach(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if got := c.Res[0].Reach(0); got != 20*5+1 {
		t.Errorf("resident Reach(0) = %v, want 101", got)
	}
	// a reports again, slower and later, then b: the fold may only loosen…
	g.Update(a, Report{Pos: geo.Pt(11, 11), V: 2, T: 60})
	g.Update(b, Report{Pos: geo.Pt(21, 21), V: 3, T: 61})
	if got := fold(); got != [3]float64{20, 5, 61} {
		t.Fatalf("fold after two absorbed updates = %v, want it monotone", got)
	}
	// …until the cell has absorbed more updates than it has residents.
	g.Update(b, Report{Pos: geo.Pt(22, 22), V: 3, T: 62})
	if got := fold(); got != [3]float64{3, 60, 62} {
		t.Fatalf("fold after the budget ran out = %v, want exact", got)
	}
	if _, refolds := g.TakeCounts(); refolds != 1 {
		t.Fatalf("refolds = %d, want 1", refolds)
	}
	// A resident leaving re-derives the fold from who is left.
	g.Update(b, Report{Pos: geo.Pt(5000, 5000), V: 9, T: 70})
	if got := fold(); got != [3]float64{2, 60, 60} { // a's report alone
		t.Fatalf("fold after b left = %v, want a's report alone", got)
	}
	if moves, refolds := g.TakeCounts(); moves != 1 || refolds != 1 {
		t.Fatalf("moves, refolds = %d, %d after one crossing", moves, refolds)
	}
}

// TestLiveGridRebucket checks rebucketing preserves membership, resets
// the cell extent exactly, and counts.
func TestLiveGridRebucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewLiveGrid[*tm](100)
	ref := map[*tm]Report{}
	for i := 0; i < 200; i++ {
		m := &tm{key: fmt.Sprintf("k-%d", i)}
		r := Report{Pos: geo.Pt(rng.Float64()*10000, rng.Float64()*10000), V: rng.Float64() * 30, T: float64(i)}
		g.Update(m, r)
		ref[m] = r
	}
	// Vacate the far corner so the monotone extent goes stale.
	far := &tm{key: "far"}
	g.Update(far, Report{Pos: geo.Pt(1e6, 1e6)})
	g.Remove(far)
	_, maxC, _ := g.CellExtent()
	if maxC.X < 1000 {
		t.Fatalf("monotone extent should still cover the vacated far cell, maxC=%v", maxC)
	}

	g.Rebucket(25)
	if g.CellSize() != 25 {
		t.Errorf("CellSize = %v after Rebucket", g.CellSize())
	}
	if g.Rebuckets() != 1 {
		t.Errorf("Rebuckets = %d", g.Rebuckets())
	}
	checkLiveGridInvariants(t, g, ref)
	// Extent is exact again after the rebucket.
	_, maxC, _ = g.CellExtent()
	if maxC.X >= 1000 {
		t.Errorf("CellExtent not reset by Rebucket: maxC=%v", maxC)
	}
	b := g.Extent()
	if b.Max.X > 10000 || b.Max.Y > 10000 {
		t.Errorf("Extent() = %v beyond stored positions", b)
	}
}

// TestLiveGridSaturation covers positions beyond the int32 cell range:
// CellOf must saturate to the edge cells instead of going through Go's
// implementation-defined out-of-range float→int32 conversion (which on
// amd64 folds both ±huge to MinInt32 and inverts query windows derived
// from the result), CellRect must extend edge cells over the saturated
// half-plane so their residents are never pruned away, through moves,
// removal and rebuckets.
func TestLiveGridSaturation(t *testing.T) {
	g := NewLiveGrid[*tm](256)
	if c := g.CellOf(geo.Pt(1e15, -1e15)); c.X != math.MaxInt32 || c.Y != math.MinInt32 {
		t.Fatalf("CellOf(1e15,-1e15) = %v, want saturated edge cell", c)
	}
	lo, hi := g.CellOf(geo.Pt(-1e15, -100)), g.CellOf(geo.Pt(1e15, 20000))
	if lo.X >= hi.X || lo.Y >= hi.Y {
		t.Fatalf("window over a half-open band inverted: lo=%v hi=%v", lo, hi)
	}
	r := g.CellRect(Cell{math.MaxInt32, math.MinInt32})
	if !math.IsInf(r.Max.X, 1) || !math.IsInf(r.Min.Y, -1) {
		t.Fatalf("edge CellRect not half-open: %v", r)
	}
	if !r.Contains(geo.Pt(1e15, -1e15)) {
		t.Fatalf("edge CellRect %v misses the position that saturated into it", r)
	}

	near, far := &tm{key: "near"}, &tm{key: "far"}
	at := func(x, y float64) Report { return Report{Pos: geo.Pt(x, y)} }
	farRect := func() geo.Rect { return g.Cells()[far.slot.cell].Rect }
	g.Update(near, at(10, 10))
	g.Update(far, at(1e15, 0))
	if r := farRect(); !math.IsInf(r.Max.X, 1) || r.DistanceTo(geo.Pt(3e18, 10)) != 0 {
		t.Fatalf("edge resident's cell rect %v does not cover its half-plane", r)
	}
	g.Update(far, at(-1e15, 1e18)) // edge-to-edge move
	if r := farRect(); !math.IsInf(r.Min.X, -1) || !math.IsInf(r.Max.Y, 1) {
		t.Fatalf("edge-to-edge move left cell rect %v", r)
	}
	g.Update(far, at(20, 20)) // back into range, sharing near's cell
	if far.slot.cell != near.slot.cell || len(g.Cells()) != 1 {
		t.Fatalf("back in range: far in cell %d, near in %d, %d cells", far.slot.cell, near.slot.cell, len(g.Cells()))
	}
	g.Update(far, at(0, 1e15))
	g.Rebucket(1e14) // the larger cells bring the position back in range
	if r := farRect(); math.IsInf(r.Max.Y, 1) || !r.Contains(geo.Pt(0, 1e15)) {
		t.Fatalf("rebucket to a covering cell size left cell rect %v", r)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d after saturation churn, want 2", g.Len())
	}
	if !g.Remove(far) {
		t.Fatal("Remove(far) failed")
	}
}
