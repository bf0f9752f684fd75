package histmap

import (
	"math"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// lTrip returns a 1 Hz trace driving an L: east 1000 m then north 1000 m
// at 10 m/s, optionally with noise seed.
func lTrip(noiseSeed int64) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i <= 200; i++ {
		d := 10 * float64(i)
		var p geo.Point
		if d <= 1000 {
			p = geo.Pt(d, 0)
		} else {
			p = geo.Pt(1000, d-1000)
		}
		tr.Samples = append(tr.Samples, trace.Sample{T: float64(i), Pos: p})
	}
	if noiseSeed != 0 {
		tr = trace.ApplyNoise(tr, trace.NewGaussMarkov(noiseSeed, 2, 30))
	}
	return tr
}

func TestLearnLShape(t *testing.T) {
	l := New(Config{CellSize: 25, MinVisits: 2})
	for seed := int64(1); seed <= 4; seed++ {
		l.AddTrace(lTrip(seed))
	}
	res, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g.Connectivity() != 1 {
		t.Errorf("learned map has %d components", g.Connectivity())
	}
	// Total learned length close to the true 2000 m (within cell error).
	total := g.TotalLength()
	if total < 1800 || total > 2300 {
		t.Errorf("learned length = %v", total)
	}
	// Every trip point lies near the learned map.
	truth := lTrip(0)
	for _, s := range truth.Samples {
		if m, ok := g.NearestLink(s.Pos, 40); !ok {
			t.Fatalf("point %v not covered by learned map", s.Pos)
		} else if m.Proj.Dist > 30 {
			t.Fatalf("point %v is %v m from learned map", s.Pos, m.Proj.Dist)
		}
	}
}

func TestMinVisitsFiltersDetour(t *testing.T) {
	l := New(Config{CellSize: 25, MinVisits: 2})
	// Three normal trips...
	for seed := int64(1); seed <= 3; seed++ {
		l.AddTrace(lTrip(seed))
	}
	// ...and one single detour far off the usual path.
	detour := &trace.Trace{}
	for i := 0; i <= 60; i++ {
		detour.Samples = append(detour.Samples, trace.Sample{
			T: float64(i), Pos: geo.Pt(5000+10*float64(i), 5000),
		})
	}
	l.AddTrace(detour)
	res, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedCells == 0 {
		t.Error("visit filter dropped nothing")
	}
	// The detour is not in the learned map.
	if _, ok := res.Graph.NearestLink(geo.Pt(5300, 5000), 100); ok {
		t.Error("one-off detour leaked into the learned map")
	}
}

func TestLearnerDeterminism(t *testing.T) {
	build := func() *Result {
		l := New(Config{CellSize: 25, MinVisits: 2})
		for seed := int64(1); seed <= 3; seed++ {
			l.AddTrace(lTrip(seed))
		}
		res, err := l.Build()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumLinks() != b.Graph.NumLinks() {
		t.Fatal("same input produced different learned maps")
	}
	for i := 0; i < a.Graph.NumNodes(); i++ {
		pa := a.Graph.Node(roadmap.NodeID(i)).Pt
		pb := b.Graph.Node(roadmap.NodeID(i)).Pt
		if pa.Dist(pb) > 1e-9 {
			t.Fatal("node positions differ between builds")
		}
	}
}

func TestLearnedSpeeds(t *testing.T) {
	l := New(Config{CellSize: 25, MinVisits: 1})
	l.AddTrace(lTrip(0))
	l.AddTrace(lTrip(0))
	res, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The trips run at 10 m/s; learned link speeds must be near that.
	for _, link := range res.Graph.Links() {
		if link.SpeedLimit > 0 && math.Abs(link.SpeedLimit-10) > 2 {
			t.Errorf("learned speed %v on link %d", link.SpeedLimit, link.ID)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	l := New(DefaultConfig())
	if _, err := l.Build(); err == nil {
		t.Error("empty learner should fail")
	}
	// A single noisy pass with MinVisits 5 leaves nothing.
	l = New(Config{CellSize: 25, MinVisits: 5})
	l.AddTrace(lTrip(1))
	if _, err := l.Build(); err == nil {
		t.Error("under-visited learner should fail")
	}
}

func TestNewPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{CellSize: 0})
}

func TestHistoryMapDrivesProtocol(t *testing.T) {
	// The §2 claim: once learning converges, the learned map's protocol
	// performance approaches the real map's. Learn the L from four trips,
	// run map-based DR on a fifth trip over the learned map, and compare
	// against the same protocol over the true map.
	l := New(Config{CellSize: 25, MinVisits: 2})
	for seed := int64(1); seed <= 4; seed++ {
		l.AddTrace(lTrip(seed))
	}
	res, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	// True map of the L.
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1000, 0))
	n2 := b.AddNode(geo.Pt(1000, 1000))
	b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	b.AddLink(roadmap.LinkSpec{From: n1, To: n2})
	trueMap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trial := lTrip(9)
	cfg := core.SourceConfig{US: 100, UP: 5, Sightings: 2}
	count := func(g *roadmap.Graph) int {
		src, err := core.NewMapSource(cfg, core.NewMapPredictor(g))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range trial.Samples {
			if _, ok := src.OnSample(s); ok {
				n++
			}
		}
		return n
	}
	learnedN, trueN := count(res.Graph), count(trueMap)
	if learnedN > trueN+3 {
		t.Errorf("learned-map DR %d updates, true-map %d: learned map too rough", learnedN, trueN)
	}
}

// plusTrips returns trips over a + junction: east-west passes and a trip
// that turns north at the centre.
func plusTrips() []*trace.Trace {
	mk := func(turnNorth bool, seed int64) *trace.Trace {
		tr := &trace.Trace{}
		for i := 0; i <= 200; i++ {
			d := 10 * float64(i)
			var p geo.Point
			if !turnNorth || d <= 1000 {
				p = geo.Pt(d, 0)
			} else {
				p = geo.Pt(1000, d-1000)
			}
			tr.Samples = append(tr.Samples, trace.Sample{T: float64(i), Pos: p})
		}
		if seed != 0 {
			tr = trace.ApplyNoise(tr, trace.NewGaussMarkov(seed, 2, 30))
		}
		return tr
	}
	// Four traversals per branch: the visit filter (MinVisits=2) needs
	// headroom because sensor noise spreads each trip over slightly
	// different cells.
	return []*trace.Trace{
		mk(false, 1), mk(false, 2), mk(false, 3), mk(false, 4),
		mk(true, 5), mk(true, 6), mk(true, 7), mk(true, 8),
	}
}

func TestLearnJunction(t *testing.T) {
	l := New(Config{CellSize: 25, MinVisits: 2})
	trips := plusTrips()
	for _, tr := range trips {
		l.AddTrace(tr)
	}
	res, err := l.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The learned map must contain a junction (some node with 3 ways out).
	junction := false
	for i := 0; i < res.Graph.NumNodes(); i++ {
		if len(res.Graph.OutgoingAppend(nil, roadmap.NodeID(i), roadmap.NoDir)) >= 3 {
			junction = true
		}
	}
	if !junction {
		t.Fatal("no junction learned from branching trips")
	}
}
