package roadmap

import (
	"math"
	"testing"

	"mapdr/internal/geo"
)

// buildCross builds a + shaped network:
//
//	        n2 (0,100)
//	         |
//	n1 ---- n0 ---- n3        n1=(-100,0) n0=(0,0) n3=(100,0)
//	         |
//	        n4 (0,-100)
func buildCross(t *testing.T) (*Graph, []NodeID, []LinkID) {
	t.Helper()
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(-100, 0))
	n2 := b.AddNode(geo.Pt(0, 100))
	n3 := b.AddNode(geo.Pt(100, 0))
	n4 := b.AddNode(geo.Pt(0, -100))
	l1 := b.AddLink(LinkSpec{From: n1, To: n0, Class: ClassResidential})
	l2 := b.AddLink(LinkSpec{From: n0, To: n2, Class: ClassResidential})
	l3 := b.AddLink(LinkSpec{From: n0, To: n3, Class: ClassSecondary})
	l4 := b.AddLink(LinkSpec{From: n0, To: n4, Class: ClassResidential})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []NodeID{n0, n1, n2, n3, n4}, []LinkID{l1, l2, l3, l4}
}

func TestBuilderBasics(t *testing.T) {
	g, _, _ := buildCross(t)
	if g.NumNodes() != 5 || g.NumLinks() != 4 {
		t.Fatalf("nodes/links = %d/%d", g.NumNodes(), g.NumLinks())
	}
	if got := g.TotalLength(); math.Abs(got-400) > 1e-9 {
		t.Errorf("TotalLength = %v", got)
	}
	if c := g.Connectivity(); c != 1 {
		t.Errorf("Connectivity = %d", c)
	}
}

func TestLinkGeometry(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 100))
	// L-shaped link with one shape point.
	l := b.AddLink(LinkSpec{From: n0, To: n1, Shape: geo.Polyline{geo.Pt(100, 0)}})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	link := g.Link(l)
	if math.Abs(link.Length()-200) > 1e-9 {
		t.Errorf("Length = %v", link.Length())
	}
	if len(link.Shape) != 3 {
		t.Fatalf("shape points = %d", len(link.Shape))
	}
	p, h := link.PointAt(50)
	if p.Dist(geo.Pt(50, 0)) > 1e-9 || math.Abs(h) > 1e-9 {
		t.Errorf("PointAt(50) = %v, %v", p, h)
	}
	p, h = link.PointAt(150)
	if p.Dist(geo.Pt(100, 50)) > 1e-9 || math.Abs(h-math.Pi/2) > 1e-9 {
		t.Errorf("PointAt(150) = %v, %v", p, h)
	}
	// Directed travel: backwards from n1.
	p, h = link.PointAtDirected(50, false)
	if p.Dist(geo.Pt(100, 50)) > 1e-9 || math.Abs(h+math.Pi/2) > 1e-9 {
		t.Errorf("PointAtDirected(50, back) = %v, %v", p, h)
	}
	// Entry and exit headings.
	if h := link.EntryHeading(true); math.Abs(h) > 1e-9 {
		t.Errorf("EntryHeading fwd = %v", h)
	}
	if h := link.EntryHeading(false); math.Abs(h+math.Pi/2) > 1e-9 {
		t.Errorf("EntryHeading back = %v", h)
	}
	if h := link.ExitHeading(true); math.Abs(h-math.Pi/2) > 1e-9 {
		t.Errorf("ExitHeading fwd = %v", h)
	}
	// Projection.
	pr := link.Project(geo.Pt(60, -10))
	if math.Abs(pr.Offset-60) > 1e-9 || math.Abs(pr.Dist-10) > 1e-9 {
		t.Errorf("Project = %+v", pr)
	}
}

func TestEndStartNodes(t *testing.T) {
	g, nodes, links := buildCross(t)
	l := g.Link(links[0]) // n1 -> n0
	if l.EndNode(true) != nodes[0] || l.EndNode(false) != nodes[1] {
		t.Error("EndNode wrong")
	}
	if l.StartNode(true) != nodes[1] || l.StartNode(false) != nodes[0] {
		t.Error("StartNode wrong")
	}
}

func TestOutgoing(t *testing.T) {
	g, nodes, links := buildCross(t)
	out := g.Outgoing(nodes[0], NoDir)
	if len(out) != 4 {
		t.Fatalf("outgoing at center = %d", len(out))
	}
	// Excluding the arrival link (l1 traversed forward) removes it.
	out = g.Outgoing(nodes[0], Dir{Link: links[0], Forward: true})
	if len(out) != 3 {
		t.Fatalf("outgoing excluding arrival = %d", len(out))
	}
	for _, d := range out {
		if d.Link == links[0] {
			t.Error("excluded link still present")
		}
	}
	// Dead-end node: only the link back.
	out = g.Outgoing(nodes[1], NoDir)
	if len(out) != 1 || out[0].Link != links[0] || !out[0].Forward {
		t.Errorf("outgoing at n1 = %v", out)
	}
}

func TestOneWayAdjacency(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	b.AddLink(LinkSpec{From: n0, To: n1, OneWay: true})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outgoing(n1, NoDir)) != 0 {
		t.Error("one-way link should not be traversable backwards")
	}
	if len(g.Outgoing(n0, NoDir)) != 1 {
		t.Error("one-way link should be traversable forwards")
	}
}

func TestNearestLink(t *testing.T) {
	g, _, links := buildCross(t)
	m, ok := g.NearestLink(geo.Pt(50, 5), 20)
	if !ok || m.Link != links[2] {
		t.Fatalf("NearestLink = %+v ok=%v", m, ok)
	}
	if math.Abs(m.Proj.Offset-50) > 1e-9 || math.Abs(m.Proj.Dist-5) > 1e-9 {
		t.Errorf("projection = %+v", m.Proj)
	}
	if _, ok := g.NearestLink(geo.Pt(500, 500), 20); ok {
		t.Error("far point should not match")
	}
}

func TestNearestLinksDistinct(t *testing.T) {
	g, _, _ := buildCross(t)
	ms := g.NearestLinks(geo.Pt(5, 5), 3, 200)
	if len(ms) != 3 {
		t.Fatalf("NearestLinks = %d", len(ms))
	}
	seen := map[LinkID]bool{}
	for _, m := range ms {
		if seen[m.Link] {
			t.Error("duplicate link in NearestLinks")
		}
		seen[m.Link] = true
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Proj.Dist < ms[i-1].Proj.Dist {
			t.Error("NearestLinks not sorted")
		}
	}
}

func TestLinksInRect(t *testing.T) {
	g, _, links := buildCross(t)
	ids := g.LinksInRect(geo.Rect{Min: geo.Pt(10, -10), Max: geo.Pt(110, 10)})
	if len(ids) != 1 || ids[0] != links[2] {
		t.Errorf("LinksInRect = %v", ids)
	}
	all := g.LinksInRect(g.Bounds().Expand(1))
	if len(all) != 4 {
		t.Errorf("all links = %v", all)
	}
}

func TestBuilderValidation(t *testing.T) {
	// Unknown node reference.
	b := NewBuilder()
	b.AddNode(geo.Pt(0, 0))
	b.AddLink(LinkSpec{From: 0, To: 99})
	if _, err := b.Build(); err == nil {
		t.Error("expected error for unknown node")
	}
	// Zero-length link.
	b = NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(0, 0))
	b.AddLink(LinkSpec{From: n0, To: n1})
	if _, err := b.Build(); err == nil {
		t.Error("expected error for zero-length link")
	}
	// Non-finite node.
	b = NewBuilder()
	b.AddNode(geo.Pt(math.NaN(), 0))
	if _, err := b.Build(); err == nil {
		t.Error("expected error for NaN node")
	}
	// Empty builder.
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("expected error for empty network")
	}
}

func TestBuildIndexesEveryLink(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	l := b.AddLink(LinkSpec{From: n0, To: n1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := g.NearestLink(geo.Pt(50, 3), 10); !ok || m.Link != l {
		t.Error("NearestLink failed")
	}
}

func TestComputeStats(t *testing.T) {
	g, _, _ := buildCross(t)
	s := g.ComputeStats()
	if s.Nodes != 5 || s.Links != 4 || s.Components != 1 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.TotalLengthKm-0.4) > 1e-9 {
		t.Errorf("TotalLengthKm = %v", s.TotalLengthKm)
	}
	if math.Abs(s.MeanLinkLength-100) > 1e-9 {
		t.Errorf("MeanLinkLength = %v", s.MeanLinkLength)
	}
}

func TestRoadClassDefaults(t *testing.T) {
	if ClassMotorway.DefaultSpeed() <= ClassResidential.DefaultSpeed() {
		t.Error("motorway should be faster than residential")
	}
	if ClassFootpath.DefaultSpeed() > 2 {
		t.Error("footpath default too fast")
	}
	if ClassMotorway.String() != "motorway" || ClassFootpath.String() != "footpath" {
		t.Error("String names wrong")
	}
}

func TestLinkSpeed(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(100, 0))
	withLimit := b.AddLink(LinkSpec{From: n0, To: n1, SpeedLimit: 10})
	without := b.AddLink(LinkSpec{From: n0, To: n1, Class: ClassMotorway})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Link(withLimit).Speed() != 10 {
		t.Error("explicit limit not used")
	}
	if g.Link(without).Speed() != ClassMotorway.DefaultSpeed() {
		t.Error("class default not used")
	}
}
