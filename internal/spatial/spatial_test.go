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

// allIndexes returns the index under test beside its reference scan.
// The rect is the callers' data bounds, which neither needs up front.
func allIndexes(geo.Rect) map[string]Index {
	return map[string]Index{
		"scan": NewScan(),
		"grid": NewGrid(250),
	}
}

func buildWith(idx Index, entries []Entry) {
	for _, e := range entries {
		idx.Insert(e)
	}
	idx.Build()
}

func TestIndexLen(t *testing.T) {
	entries := randomEntries(100, 5000, 1)
	for name, idx := range allIndexes(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(5200, 5200)}) {
		buildWith(idx, entries)
		if idx.Len() != 100 {
			t.Errorf("%s: Len = %d", name, idx.Len())
		}
	}
}

func TestIndexEmptyQueries(t *testing.T) {
	for name, idx := range allIndexes(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}) {
		idx.Build()
		if _, ok := idx.Nearest(geo.Pt(1, 1), 1e9); ok {
			t.Errorf("%s: Nearest on empty index returned a hit", name)
		}
		if hits := idx.NearestK(geo.Pt(0, 0), 5, 1e9); len(hits) != 0 {
			t.Errorf("%s: NearestK on empty index = %d hits", name, len(hits))
		}
		called := false
		idx.Search(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}, func(Entry) bool {
			called = true
			return true
		})
		if called {
			t.Errorf("%s: Search on empty index visited entries", name)
		}
	}
}

func TestIndexSearchMatchesScan(t *testing.T) {
	entries := randomEntries(500, 8000, 2)
	bounds := geo.Rect{Min: geo.Pt(-200, -200), Max: geo.Pt(8400, 8400)}
	ref := NewScan()
	buildWith(ref, entries)
	rng := rand.New(rand.NewSource(3))
	for name, idx := range allIndexes(bounds) {
		if name == "scan" {
			continue
		}
		buildWith(idx, entries)
		for q := 0; q < 50; q++ {
			c := geo.Pt(rng.Float64()*8000, rng.Float64()*8000)
			r := geo.Rect{Min: c, Max: c.Add(geo.Pt(rng.Float64()*1000, rng.Float64()*1000))}
			want := collectIDs(ref, r)
			got := collectIDs(idx, r)
			if !equalIDs(want, got) {
				t.Fatalf("%s: query %v: got %v want %v", name, r, got, want)
			}
		}
	}
}

func collectIDs(idx Index, r geo.Rect) []int64 {
	var ids []int64
	idx.Search(r, func(e Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
	bounds := geo.Rect{Min: geo.Pt(-200, -200), Max: geo.Pt(8400, 8400)}
	ref := NewScan()
	buildWith(ref, entries)
	rng := rand.New(rand.NewSource(5))
	for name, idx := range allIndexes(bounds) {
		if name == "scan" {
			continue
		}
		buildWith(idx, entries)
		for q := 0; q < 200; q++ {
			p := geo.Pt(rng.Float64()*9000-500, rng.Float64()*9000-500)
			maxD := []float64{50, 200, 1000, math.Inf(1)}[q%4]
			wantHit, wantOK := ref.Nearest(p, maxD)
			gotHit, gotOK := idx.Nearest(p, maxD)
			if wantOK != gotOK {
				t.Fatalf("%s: Nearest(%v, %v) ok=%v want %v", name, p, maxD, gotOK, wantOK)
			}
			if wantOK && math.Abs(wantHit.Dist-gotHit.Dist) > 1e-9 {
				t.Fatalf("%s: Nearest(%v, %v) dist=%v want %v (ids %d vs %d)",
					name, p, maxD, gotHit.Dist, wantHit.Dist, gotHit.Entry.ID, wantHit.Entry.ID)
			}
		}
	}
}

func TestIndexNearestKMatchesScan(t *testing.T) {
	entries := randomEntries(300, 5000, 6)
	bounds := geo.Rect{Min: geo.Pt(-200, -200), Max: geo.Pt(5400, 5400)}
	ref := NewScan()
	buildWith(ref, entries)
	rng := rand.New(rand.NewSource(7))
	for name, idx := range allIndexes(bounds) {
		if name == "scan" {
			continue
		}
		buildWith(idx, entries)
		for q := 0; q < 100; q++ {
			p := geo.Pt(rng.Float64()*5000, rng.Float64()*5000)
			k := 1 + q%8
			maxD := []float64{100, 500, math.Inf(1)}[q%3]
			want := ref.NearestK(p, k, maxD)
			got := idx.NearestK(p, k, maxD)
			if len(want) != len(got) {
				t.Fatalf("%s: NearestK(%v,%d,%v) len=%d want %d", name, p, k, maxD, len(got), len(want))
			}
			for i := range want {
				if math.Abs(want[i].Dist-got[i].Dist) > 1e-9 {
					t.Fatalf("%s: NearestK hit %d dist %v want %v", name, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestNearestKSortedAscendingProperty(t *testing.T) {
	entries := randomEntries(300, 5000, 8)
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(5200, 5200)}
	rng := rand.New(rand.NewSource(9))
	for name, idx := range allIndexes(bounds) {
		buildWith(idx, entries)
		for q := 0; q < 50; q++ {
			p := geo.Pt(rng.Float64()*5000, rng.Float64()*5000)
			hits := idx.NearestK(p, 10, math.Inf(1))
			for i := 1; i < len(hits); i++ {
				if hits[i].Dist < hits[i-1].Dist {
					t.Fatalf("%s: hits not sorted: %v then %v", name, hits[i-1].Dist, hits[i].Dist)
				}
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	entries := randomEntries(200, 1000, 12)
	bounds := geo.Rect{Min: geo.Pt(-100, -100), Max: geo.Pt(1300, 1300)}
	for name, idx := range allIndexes(bounds) {
		buildWith(idx, entries)
		count := 0
		idx.Search(geo.Rect{Min: geo.Pt(-1e6, -1e6), Max: geo.Pt(1e6, 1e6)}, func(Entry) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Errorf("%s: early stop visited %d entries", name, count)
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
		idxs := map[string]Index{
			"scan": NewScan(),
			"grid": NewGrid(500),
		}
		for name, idx := range idxs {
			buildWith(idx, entries)
			b.Run(fmt.Sprintf("%s/n=%d/nearest", name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < b.N; i++ {
					p := geo.Pt(rng.Float64()*20000, rng.Float64()*20000)
					idx.Nearest(p, 500)
				}
			})
		}
	}
}
