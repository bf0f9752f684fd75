package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mapdr/internal/geo"
)

// randomEntries generates n random short segments inside a size×size box.
func randomEntries(n int, size float64, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, n)
	for i := range entries {
		a := geo.Pt(rng.Float64()*size, rng.Float64()*size)
		h := rng.Float64() * 2 * math.Pi
		l := 20 + rng.Float64()*180
		b := geo.PolarPoint(a, h, l)
		entries[i] = Entry{ID: int64(i), Seg: geo.Seg(a, b)}
	}
	return entries
}

// scan is the brute-force reference the grid is checked against: every
// entry, judged one at a time.
type scan []Entry

// within returns the ids of the entries within maxDist of p, sorted.
func (s scan) within(p geo.Point, maxDist float64) []int64 {
	var ids []int64
	for _, e := range s {
		if e.Seg.DistanceTo(p) <= maxDist {
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// nearestK returns up to k entries nearest to p within maxDist, ordered
// by increasing distance.
func (s scan) nearestK(p geo.Point, k int, maxDist float64) []Hit {
	if k <= 0 {
		return nil
	}
	var hits []Hit
	for _, e := range s {
		if d := e.Seg.DistanceTo(p); d <= maxDist {
			hits = insertHit(hits, Hit{Entry: e, Dist: d}, k)
		}
	}
	return hits
}

// insertHit inserts h into hits (sorted ascending by Dist), keeping at most
// k elements. Returns the updated slice.
func insertHit(hits []Hit, h Hit, k int) []Hit {
	if lo := hitRank(hits, h.Dist); lo < k {
		hits = insertAt(hits, lo, h, k)
	}
	return hits
}

func newGrid(cellSize float64, entries []Entry) *Grid {
	g := NewGrid(cellSize)
	for _, e := range entries {
		g.Insert(e)
	}
	return g
}

func TestIndexLen(t *testing.T) {
	if g := newGrid(250, randomEntries(100, 5000, 1)); g.Len() != 100 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestIndexEmptyQueries(t *testing.T) {
	g := newGrid(250, nil)
	var s NearestScratch
	if hits := g.NearestKWith(geo.Pt(1, 1), 1, 1e9, &s); len(hits) != 0 {
		t.Errorf("nearest on empty index = %d hits", len(hits))
	}
	if hits := g.NearestKWith(geo.Pt(0, 0), 5, 1e9, &s); len(hits) != 0 {
		t.Errorf("NearestKWith on empty index = %d hits", len(hits))
	}
}

// TestIndexSearchMatchesScan asks the grid for every entry within a
// radius (k as large as the index) and compares the id set with the scan's.
func TestIndexSearchMatchesScan(t *testing.T) {
	entries := randomEntries(500, 8000, 2)
	ref, g := scan(entries), newGrid(250, entries)
	var s NearestScratch
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 50; q++ {
		c := geo.Pt(rng.Float64()*8000, rng.Float64()*8000)
		r := rng.Float64() * 1000
		want := ref.within(c, r)
		var got []int64
		for _, h := range g.NearestKWith(c, len(entries), r, &s) {
			got = append(got, h.Entry.ID)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !equalIDs(want, got) {
			t.Fatalf("query %v r=%v: got %v want %v", c, r, got, want)
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexNearestMatchesScan(t *testing.T) {
	entries := randomEntries(500, 8000, 4)
	ref, g := scan(entries), newGrid(250, entries)
	var s NearestScratch
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 200; q++ {
		p := geo.Pt(rng.Float64()*9000-500, rng.Float64()*9000-500)
		maxD := []float64{50, 200, 1000, math.Inf(1)}[q%4]
		want := ref.nearestK(p, 1, maxD)
		got := g.NearestKWith(p, 1, maxD, &s)
		if len(want) != len(got) {
			t.Fatalf("nearest(%v, %v) hits=%d want %d", p, maxD, len(got), len(want))
		}
		if len(want) == 1 && math.Abs(want[0].Dist-got[0].Dist) > 1e-9 {
			t.Fatalf("nearest(%v, %v) dist=%v want %v (ids %d vs %d)",
				p, maxD, got[0].Dist, want[0].Dist, got[0].Entry.ID, want[0].Entry.ID)
		}
	}
}

func TestIndexNearestKMatchesScan(t *testing.T) {
	entries := randomEntries(300, 5000, 6)
	ref, g := scan(entries), newGrid(250, entries)
	var s NearestScratch
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 100; q++ {
		p := geo.Pt(rng.Float64()*5000, rng.Float64()*5000)
		k := 1 + q%8
		maxD := []float64{100, 500, math.Inf(1)}[q%3]
		want := ref.nearestK(p, k, maxD)
		got := g.NearestKWith(p, k, maxD, &s)
		if len(want) != len(got) {
			t.Fatalf("NearestKWith(%v,%d,%v) len=%d want %d", p, k, maxD, len(got), len(want))
		}
		for i := range want {
			if math.Abs(want[i].Dist-got[i].Dist) > 1e-9 {
				t.Fatalf("NearestKWith hit %d dist %v want %v", i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestNearestKSortedAscendingProperty(t *testing.T) {
	entries := randomEntries(300, 5000, 8)
	ref, g := scan(entries), newGrid(250, entries)
	var s NearestScratch
	rng := rand.New(rand.NewSource(9))
	for name, nearestK := range map[string]func(geo.Point) []Hit{
		"scan": func(p geo.Point) []Hit { return ref.nearestK(p, 10, math.Inf(1)) },
		"grid": func(p geo.Point) []Hit { return g.NearestKWith(p, 10, math.Inf(1), &s) },
	} {
		for q := 0; q < 50; q++ {
			p := geo.Pt(rng.Float64()*5000, rng.Float64()*5000)
			hits := nearestK(p)
			for i := 1; i < len(hits); i++ {
				if hits[i].Dist < hits[i-1].Dist {
					t.Fatalf("%s: hits not sorted: %v then %v", name, hits[i-1].Dist, hits[i].Dist)
				}
			}
		}
	}
}

func TestGridPanicsOnBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive cell size")
		}
	}()
	NewGrid(0)
}

func TestInsertHitKeepsK(t *testing.T) {
	var hits []Hit
	for i := 10; i > 0; i-- {
		hits = insertHit(hits, Hit{Entry: Entry{ID: int64(i)}, Dist: float64(i)}, 3)
	}
	if len(hits) != 3 {
		t.Fatalf("len = %d", len(hits))
	}
	for i, want := range []float64{1, 2, 3} {
		if hits[i].Dist != want {
			t.Errorf("hits[%d].Dist = %v, want %v", i, hits[i].Dist, want)
		}
	}
}

func BenchmarkSpatialIndexes(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		entries := randomEntries(n, 20000, 42)
		ref, g := scan(entries), newGrid(500, entries)
		var s NearestScratch
		for name, nearest := range map[string]func(geo.Point){
			"scan": func(p geo.Point) { ref.nearestK(p, 1, 500) },
			"grid": func(p geo.Point) { g.NearestKWith(p, 1, 500, &s) },
		} {
			b.Run(fmt.Sprintf("%s/n=%d/nearest", name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < b.N; i++ {
					nearest(geo.Pt(rng.Float64()*20000, rng.Float64()*20000))
				}
			})
		}
	}
}

// visitedSetNearestK is the reference for Grid.NearestKWith: the same ring
// scan, deduplicating entries met in several cells with a visited set, so
// each entry is judged once.
func visitedSetNearestK(g *Grid, p geo.Point, k int, maxDist float64) []Hit {
	if k <= 0 || len(g.entries) == 0 {
		return nil
	}
	center := g.cellOf(p)
	farthest := math.Max(
		math.Max(p.Dist(g.bounds.Min), p.Dist(g.bounds.Max)),
		math.Max(p.Dist(geo.Pt(g.bounds.Min.X, g.bounds.Max.Y)), p.Dist(geo.Pt(g.bounds.Max.X, g.bounds.Min.Y))),
	)
	maxRing := int32(math.Ceil(math.Min(maxDist, farthest)/g.cellSize)) + 1
	var hits []Hit
	seen := make(map[int32]bool)
	for ring := int32(0); ring <= maxRing; ring++ {
		if float64(ring-1)*g.cellSize > kthDist(hits, k, maxDist) {
			break
		}
		for dx := -ring; dx <= ring; dx++ {
			var ys []int32
			if dx == -ring || dx == ring {
				for dy := -ring; dy <= ring; dy++ {
					ys = append(ys, dy)
				}
			} else {
				ys = []int32{-ring, ring}
			}
			for _, dy := range ys {
				for _, idx := range g.cells[[2]int32{center[0] + dx, center[1] + dy}] {
					if seen[idx] {
						continue
					}
					seen[idx] = true
					e := g.entries[idx]
					if d := e.Seg.DistanceTo(p); d <= maxDist {
						hits = insertHit(hits, Hit{Entry: e, Dist: d}, k)
					}
				}
			}
		}
	}
	return hits
}

// TestNearestKWithMatchesVisitedSet pins the scratch query to the
// visited-set scan bit for bit — the same entries, distances and order —
// over one reused scratch, on a grid where long segments span many cells
// and some entries are exact duplicates of others.
func TestNearestKWithMatchesVisitedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGrid(100)
	for i := 0; i < 400; i++ {
		a := geo.Pt(rng.Float64()*3000, rng.Float64()*3000)
		b := geo.PolarPoint(a, rng.Float64()*2*math.Pi, rng.Float64()*[]float64{50, 400, 1500}[i%3])
		e := Entry{ID: int64(i), Seg: geo.Seg(a, b)}
		g.Insert(e)
		if i%10 == 0 {
			g.Insert(e)
		}
	}
	var s NearestScratch
	for q := 0; q < 500; q++ {
		p := geo.Pt(rng.Float64()*3400-200, rng.Float64()*3400-200)
		k := []int{1, 2, 5, 20}[q%4]
		maxD := []float64{25, 150, 800, math.Inf(1)}[q%4]
		want := visitedSetNearestK(g, p, k, maxD)
		got := g.NearestKWith(p, k, maxD, &s)
		if len(got) != len(want) {
			t.Fatalf("q%d: %d hits, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Entry != want[i].Entry || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("q%d hit %d: %+v, want %+v", q, i, got[i], want[i])
			}
		}
	}
	if raceEnabled {
		return // the pin below counts allocations; see raceEnabled
	}
	p := geo.Pt(1500, 1500)
	g.NearestKWith(p, 20, math.Inf(1), &s)
	if allocs := testing.AllocsPerRun(100, func() { g.NearestKWith(p, 20, math.Inf(1), &s) }); allocs != 0 {
		t.Errorf("NearestKWith on a warm scratch: %v allocs, want 0", allocs)
	}
}
