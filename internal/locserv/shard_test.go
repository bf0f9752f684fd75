package locserv

import (
	"fmt"
	"math/rand"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
)

func TestShardIndexStableAndInRange(t *testing.T) {
	ids := []ObjectID{"", "a", "car-07", "taxi/42", "Zürich-tram-11", "object-with-a-rather-long-identifier"}
	for _, n := range []int{1, 2, 8, 64} {
		for _, id := range ids {
			first := shardIndex(id, n)
			if first < 0 || first >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", id, n, first)
			}
			for trial := 0; trial < 3; trial++ {
				if got := shardIndex(id, n); got != first {
					t.Fatalf("shardIndex(%q, %d) unstable: %d then %d", id, n, first, got)
				}
			}
		}
	}
	// n=1 maps everything to shard 0.
	for _, id := range ids {
		if got := shardIndex(id, 1); got != 0 {
			t.Errorf("shardIndex(%q, 1) = %d", id, got)
		}
	}
}

func TestShardRoutingDistribution(t *testing.T) {
	const n, objects = 8, 1000
	counts := make([]int, n)
	for i := 0; i < objects; i++ {
		counts[shardIndex(ObjectID(fmt.Sprintf("veh-%04d", i)), n)]++
	}
	mean := objects / n
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d empty after %d inserts", s, objects)
		}
		if c > 3*mean {
			t.Errorf("shard %d holds %d of %d objects (mean %d): hash badly skewed", s, c, objects, mean)
		}
	}
}

func TestServiceRoutesToComputedShard(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 100; i++ {
		id := ObjectID(fmt.Sprintf("car-%03d", i))
		if err := s.Register(id, core.StaticPredictor{}); err != nil {
			t.Fatal(err)
		}
		sh := s.shards[shardIndex(id, len(s.shards))]
		sh.mu.RLock()
		_, ok := sh.objs[id]
		sh.mu.RUnlock()
		if !ok {
			t.Fatalf("%s not stored in its hash shard", id)
		}
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d", s.Len())
	}
	total := 0
	for _, sh := range s.shards {
		total += len(sh.objs)
	}
	if total != 100 {
		t.Errorf("shard populations sum to %d", total)
	}
}

// TestNearestMerge exercises the cross-shard k-NN merge with table-driven
// placements: k larger than any per-shard population, exact distance
// ties, empty shards and silent objects.
func TestNearestMerge(t *testing.T) {
	type obj struct {
		id     ObjectID
		x, y   float64
		silent bool // registered but never reported
	}
	cases := []struct {
		name   string
		shards int
		objs   []obj
		k      int
		want   []ObjectID
	}{
		{
			name:   "k larger than per-shard counts",
			shards: 64, // 5 objects over 64 shards: every shard holds fewer than k
			objs: []obj{
				{id: "a", x: 10}, {id: "b", x: 20}, {id: "c", x: 30},
				{id: "d", x: 40}, {id: "e", x: 50},
			},
			k:    4,
			want: []ObjectID{"a", "b", "c", "d"},
		},
		{
			name:   "k exceeds total population",
			shards: 8,
			objs:   []obj{{id: "a", x: 10}, {id: "b", x: 20}},
			k:      10,
			want:   []ObjectID{"a", "b"},
		},
		{
			name:   "distance ties break by id",
			shards: 16,
			objs: []obj{
				{id: "north", y: 100}, {id: "south", y: -100},
				{id: "east", x: 100}, {id: "west", x: -100},
			},
			k:    3,
			want: []ObjectID{"east", "north", "south"},
		},
		{
			name:   "silent objects skipped",
			shards: 4,
			objs:   []obj{{id: "seen", x: 5}, {id: "mute", x: 1, silent: true}},
			k:      2,
			want:   []ObjectID{"seen"},
		},
		{
			name:   "empty service",
			shards: 8,
			objs:   nil,
			k:      3,
			want:   nil,
		},
		{
			name:   "single shard baseline agrees",
			shards: 1,
			objs: []obj{
				{id: "a", x: 10}, {id: "b", x: 20}, {id: "c", x: 30},
			},
			k:    2,
			want: []ObjectID{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSharded(tc.shards)
			for _, o := range tc.objs {
				if err := s.Register(o.id, core.StaticPredictor{}); err != nil {
					t.Fatal(err)
				}
				if !o.silent {
					applyAt(t, s, o.id, 1, 0, geo.Pt(o.x, o.y), 0, 0)
				}
			}
			hits := s.Nearest(geo.Pt(0, 0), tc.k, 0)
			if len(hits) != len(tc.want) {
				t.Fatalf("got %d hits %v, want %d", len(hits), hits, len(tc.want))
			}
			for i, id := range tc.want {
				if hits[i].ID != id {
					t.Errorf("hit[%d] = %s, want %s (all: %+v)", i, hits[i].ID, id, hits)
				}
				if i > 0 && PosLess(hits[i], hits[i-1]) {
					t.Errorf("hits not ordered at %d: %+v", i, hits)
				}
			}
			if got := s.Nearest(geo.Pt(0, 0), 0, 0); got != nil {
				t.Error("k=0 should return nil")
			}
		})
	}
}

// TestWithinIndexMatchesScan cross-checks the live-index range path
// against brute force over moving objects, across shard counts and query
// times (which grow the cell bounds' pruning reach) — and verifies that
// bounded-predictor fleets never fall back to a scan, even right after a
// mutation.
func TestWithinIndexMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := NewSharded(shards)
			const n = 400
			type truth struct {
				id  ObjectID
				rep core.Report
			}
			objs := make([]truth, n)
			for i := range objs {
				id := ObjectID(fmt.Sprintf("o-%03d", i))
				if err := s.Register(id, core.LinearPredictor{}); err != nil {
					t.Fatal(err)
				}
				rep := core.Report{
					Seq:     1,
					T:       rng.Float64() * 5,
					Pos:     geo.Pt(rng.Float64()*5000, rng.Float64()*5000),
					V:       rng.Float64() * 30,
					Heading: rng.Float64() * 6.28,
				}
				if err := s.Apply(id, core.Update{Report: rep}); err != nil {
					t.Fatal(err)
				}
				objs[i] = truth{id: id, rep: rep}
			}
			check := func(qt float64) {
				t.Helper()
				r := geo.Rect{Min: geo.Pt(1000, 1000), Max: geo.Pt(3500, 3500)}
				got := s.Within(r, qt)
				want := map[ObjectID]geo.Point{}
				for _, o := range objs {
					p := (core.LinearPredictor{}).Predict(o.rep, qt)
					if r.Contains(p) {
						want[o.id] = p
					}
				}
				if len(got) != len(want) {
					t.Fatalf("t=%v: got %d hits, want %d", qt, len(got), len(want))
				}
				for i, h := range got {
					wp, ok := want[h.ID]
					if !ok || wp.Dist(h.Pos) > 1e-9 {
						t.Errorf("t=%v: unexpected hit %+v", qt, h)
					}
					if i > 0 && got[i-1].ID >= h.ID {
						t.Errorf("t=%v: results not sorted by id", qt)
					}
				}
			}
			// Exercise the indexed path at growing pruning reach.
			for _, qt := range []float64{0, 10, 60, 300} {
				check(qt)
			}
			// Mutate one object and re-query immediately: the live index is
			// maintained by the write path, so the answer must be fresh with
			// no rebuild in between.
			moved := objs[0].id
			if err := s.Apply(moved, core.Update{Report: core.Report{
				Seq: 2, T: 0, Pos: geo.Pt(2000, 2000), V: 0,
			}}); err != nil {
				t.Fatal(err)
			}
			objs[0].rep = core.Report{Seq: 2, T: 0, Pos: geo.Pt(2000, 2000), V: 0}
			r := geo.Rect{Min: geo.Pt(1999, 1999), Max: geo.Pt(2001, 2001)}
			found := false
			for _, h := range s.Within(r, 0) {
				if h.ID == moved {
					found = true
				}
			}
			if !found {
				t.Error("moved object missing from range answer right after its update")
			}
			check(0)
			check(60)
			st := s.NodeStats().IndexStats
			if st.ScanFallbacks != 0 {
				t.Errorf("bounded-predictor fleet hit the scan path %d times", st.ScanFallbacks)
			}
			if st.IndexedQueries == 0 {
				t.Error("no queries went through the live index")
			}
		})
	}
}
