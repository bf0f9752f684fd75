package roadmap

import (
	"math"
	"testing"

	"mapdr/internal/geo"
)

// buildChain builds a simple chain n0 -- n1 -- n2 -- n3 on the x axis with
// 100 m links, plus a slow detour n1 -- d -- n2 of 300 m.
func buildChain(t *testing.T) (*Graph, []NodeID, []LinkID) {
	t.Helper()
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	n2 := b.AddNode(geo.Pt(200, 0))
	n3 := b.AddNode(geo.Pt(300, 0))
	d := b.AddNode(geo.Pt(150, 100))
	l0 := b.AddLink(LinkSpec{From: n0, To: n1})
	l1 := b.AddLink(LinkSpec{From: n1, To: n2})
	l2 := b.AddLink(LinkSpec{From: n2, To: n3})
	ld1 := b.AddLink(LinkSpec{From: n1, To: d, Shape: geo.Polyline{geo.Pt(100, 100)}})
	ld2 := b.AddLink(LinkSpec{From: d, To: n2, Shape: geo.Polyline{geo.Pt(200, 100)}})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []NodeID{n0, n1, n2, n3, d}, []LinkID{l0, l1, l2, ld1, ld2}
}

func TestShortestPathPrefersDirect(t *testing.T) {
	g, nodes, links := buildChain(t)
	r, err := ShortestPath(g, nodes[0], nodes[3], LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("route links = %d", r.Len())
	}
	want := []LinkID{links[0], links[1], links[2]}
	for i, d := range r.Dirs() {
		if d.Link != want[i] || !d.Forward {
			t.Errorf("route[%d] = %+v", i, d)
		}
	}
	if math.Abs(r.Length()-300) > 1e-9 {
		t.Errorf("Length = %v", r.Length())
	}
}

func TestShortestPathBackwardTraversal(t *testing.T) {
	g, nodes, _ := buildChain(t)
	// n3 to n0 must traverse links backwards (two-way roads).
	r, err := ShortestPath(g, nodes[3], nodes[0], LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("route links = %d", r.Len())
	}
	for _, d := range r.Dirs() {
		if d.Forward {
			t.Errorf("expected backward traversal, got %+v", d)
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	n2 := b.AddNode(geo.Pt(500, 500))
	n3 := b.AddNode(geo.Pt(600, 500))
	b.AddLink(LinkSpec{From: n0, To: n1})
	b.AddLink(LinkSpec{From: n2, To: n3})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShortestPath(g, n0, n2, nil); err == nil {
		t.Error("expected unreachable error")
	}
}

func TestTravelTimeCostPrefersFastRoad(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1000, 0))
	slow := b.AddLink(LinkSpec{From: n0, To: n1, SpeedLimit: 10})
	fast := b.AddLink(LinkSpec{
		From: n0, To: n1, SpeedLimit: 40,
		Shape: geo.Polyline{geo.Pt(500, 200)}, // longer but faster
	})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	travelTime := func(g *Graph, d Dir) float64 {
		l := g.Link(d.Link)
		return l.Length() / l.Speed()
	}
	r, err := ShortestPath(g, n0, n1, travelTime)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0).Link != fast {
		t.Error("travel time routing should pick the fast link")
	}
	r, err = ShortestPath(g, n0, n1, LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(0).Link != slow {
		t.Error("length routing should pick the short link")
	}
}

func TestRouteAddressing(t *testing.T) {
	g, nodes, _ := buildChain(t)
	r, err := ShortestPath(g, nodes[0], nodes[3], LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	p, h := r.PointAt(150)
	if p.Dist(geo.Pt(150, 0)) > 1e-9 || math.Abs(h) > 1e-9 {
		t.Errorf("PointAt(150) = %v, %v", p, h)
	}
	p, _ = r.PointAt(-5)
	if p.Dist(geo.Pt(0, 0)) > 1e-9 {
		t.Errorf("clamped start = %v", p)
	}
	p, _ = r.PointAt(1e9)
	if p.Dist(geo.Pt(300, 0)) > 1e-9 {
		t.Errorf("clamped end = %v", p)
	}
}

func TestRouteProject(t *testing.T) {
	g, nodes, _ := buildChain(t)
	r, err := ShortestPath(g, nodes[0], nodes[3], LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	off, dist := r.Project(geo.Pt(120, 30))
	if math.Abs(off-120) > 1e-9 || math.Abs(dist-30) > 1e-9 {
		t.Errorf("Project = %v, %v", off, dist)
	}
}

func TestRouteContinuityValidation(t *testing.T) {
	g, _, links := buildChain(t)
	// l0 forward ends at n1; l2 starts at n2 — discontinuous.
	_, err := NewRoute(g, []Dir{
		{Link: links[0], Forward: true},
		{Link: links[2], Forward: true},
	})
	if err == nil {
		t.Error("expected discontinuity error")
	}
	if _, err := NewRoute(g, nil); err == nil {
		t.Error("expected empty route error")
	}
}

func TestRouteRecordTurns(t *testing.T) {
	g, nodes, links := buildChain(t)
	r, err := ShortestPath(g, nodes[0], nodes[3], LengthCost)
	if err != nil {
		t.Fatal(err)
	}
	tt := NewTurnTable()
	r.RecordTurns(tt, 1)
	if tt.Len() != 2 {
		t.Errorf("turn pairs = %d", tt.Len())
	}
	// The recorded turn takes all the weight from the unrecorded detour.
	detour := Dir{Link: links[3], Forward: true}
	if p := tt.Prob(r.At(0), r.At(1), []Dir{r.At(1), detour}); p != 1 {
		t.Errorf("prob = %v", p)
	}
}

func TestTurnTableProb(t *testing.T) {
	tt := NewTurnTable()
	in := Dir{Link: 0, Forward: true}
	a := Dir{Link: 1, Forward: true}
	bb := Dir{Link: 2, Forward: true}
	alts := []Dir{a, bb}
	// Uniform when unobserved.
	if p := tt.Prob(in, a, alts); p != 0.5 {
		t.Errorf("uniform prob = %v", p)
	}
	tt.Observe(in, a, 3)
	tt.Observe(in, bb, 1)
	if p := tt.Prob(in, a, alts); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("prob a = %v", p)
	}
	if p := tt.Prob(in, bb, alts); math.Abs(p-0.25) > 1e-9 {
		t.Errorf("prob b = %v", p)
	}
	if p := tt.Prob(in, a, nil); p != 0 {
		t.Errorf("prob with no alternatives = %v", p)
	}
}
