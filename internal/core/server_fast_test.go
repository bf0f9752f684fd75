package core

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// TestFastLinearBitIdentical proves the server's memoized linear path
// returns exactly what LinearPredictor.Predict computes: the cached
// cos/sin feed the same multiply-add PolarPoint performs, so every
// coordinate matches bit for bit.
func TestFastLinearBitIdentical(t *testing.T) {
	sv := NewServer(LinearPredictor{})
	for i := 0; i < 50; i++ {
		rep := Report{
			Seq:     uint32(i + 1),
			T:       float64(i) * 1.7,
			Pos:     geo.Pt(float64(i)*13.25, -float64(i)*7.5),
			V:       3.5 + float64(i)*0.9,
			Heading: -math.Pi + float64(i)*0.37,
		}
		if !sv.Apply(Update{Reason: ReasonDeviation, Report: rep}) {
			t.Fatalf("report %d not applied", i)
		}
		for _, dt := range []float64{-1, 0, 0.25, 1, 17.5, 1e4} {
			tq := rep.T + dt
			got, ok := sv.Position(tq)
			if !ok {
				t.Fatalf("no position at t=%v", tq)
			}
			want := (LinearPredictor{}).Predict(rep, tq)
			if got != want {
				t.Fatalf("report %d at t=%v: server %v, predictor %v", i, tq, got, want)
			}
		}
	}
}

// TestFastLinearZeroAllocs pins the linear query path: answering a
// position query costs no allocations and no trigonometry (cos/sin
// were paid once at Apply).
func TestFastLinearZeroAllocs(t *testing.T) {
	sv := NewServer(LinearPredictor{})
	sv.Apply(Update{Reason: ReasonDeviation, Report: Report{
		Seq: 1, T: 0, Pos: geo.Pt(10, 20), V: 5, Heading: 0.7,
	}})
	tq := 3.0
	avg := testing.AllocsPerRun(100, func() {
		if _, ok := sv.Position(tq); !ok {
			t.Fatal("no position")
		}
		tq += 0.5
	})
	if avg != 0 {
		t.Fatalf("linear Position allocates %.1f objects per query, want 0", avg)
	}
}

// TestServerApplyPositionAllocs pins the replica's report path for the
// map predictor: after the first report, Apply re-aims the existing
// cursor (keeping its turn scratch) and Position walks it across
// intersections, so a report and the query after it allocate nothing.
func TestServerApplyPositionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; skipped under the race detector")
	}
	g, links := buildRing(t, 24, 500)
	sv := NewServer(NewMapPredictor(g))
	rep := Report{Seq: 1, T: 0, Pos: g.Node(0).Pt, V: 20, Heading: math.Pi / 2,
		Link: roadmap.Dir{Link: links[0], Forward: true}}
	sv.Apply(Update{Reason: ReasonInit, Report: rep})
	sv.Position(1) // the first query mints the cursor
	k := 0
	// One run is 50 reports: AllocsPerRun rounds its mean down.
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 50; i++ {
			k++
			rep.Seq++
			rep.T = float64(k)
			rep.Link = roadmap.Dir{Link: links[k%len(links)], Forward: true}
			rep.Pos = g.Node(roadmap.NodeID(k % len(links))).Pt
			if !sv.Apply(Update{Reason: ReasonDeviation, Report: rep}) {
				t.Fatal("report not applied")
			}
			// 40 s at 20 m/s crosses several of the ring's ~130 m links.
			if _, ok := sv.Position(rep.T + 40); !ok {
				t.Fatal("no position")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Server.Apply + Position: %v allocs per 50 reports, want 0", allocs)
	}
}

// TestSourceSampleAllocs pins the source's per-sample path for the map
// predictor: the sighting window, the map matcher and the deviation
// check's cursor (re-aimed at every report it sends) allocate nothing
// once warm, on quiet samples and on samples that send an update.
func TestSourceSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; skipped under the race detector")
	}
	g, links := buildRing(t, 24, 500)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewMapSource(SourceConfig{US: 10, UP: 2, Sightings: 4}, NewMapPredictor(g))
	if err != nil {
		t.Fatal(err)
	}
	// The speed swings between 8 and 22 m/s, so the 10 m threshold is
	// crossed every few samples and updates are sent throughout.
	k, s, updates := 0, 0.0, 0
	step := func() {
		k++
		s += 15 + 7*math.Sin(float64(k)/3)
		for s >= route.Length() {
			s -= route.Length()
		}
		pos, _ := route.PointAt(s)
		if _, ok := src.OnSample(trace.Sample{T: float64(k), Pos: pos}); ok {
			updates++
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	warm := updates
	// One run is 50 samples: AllocsPerRun rounds its mean down, so a
	// per-run batch keeps an occasional regrowth from hiding.
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 50; i++ {
			step()
		}
	})
	if updates-warm < 10 {
		t.Fatalf("only %d updates during the pin; the trace must exercise the report path", updates-warm)
	}
	if allocs != 0 {
		t.Errorf("Source.OnSample: %v allocs per 50 samples, want 0", allocs)
	}
}
