package roadmap

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mapdr/internal/geo"
)

func buildSerializable(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddSignalNode(geo.Pt(500, 0))
	n2 := b.AddNode(geo.Pt(500, 500))
	b.AddLink(LinkSpec{
		From: n0, To: n1,
		Shape: geo.Polyline{geo.Pt(200, 30), geo.Pt(350, -20)},
		Class: ClassSecondary, SpeedLimit: 22.2, Name: "B14",
	})
	b.AddLink(LinkSpec{From: n1, To: n2, Class: ClassMotorway, OneWay: true})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func graphsEquivalent(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumLinks(), b.NumNodes(), b.NumLinks())
	}
	for i := 0; i < a.NumNodes(); i++ {
		na, nb := a.Node(NodeID(i)), b.Node(NodeID(i))
		if na.Pt.Dist(nb.Pt) > 1e-9 || na.Signal != nb.Signal {
			t.Errorf("node %d mismatch", i)
		}
	}
	for i := 0; i < a.NumLinks(); i++ {
		la, lb := a.Link(LinkID(i)), b.Link(LinkID(i))
		if la.From != lb.From || la.To != lb.To || la.Class != lb.Class ||
			la.OneWay != lb.OneWay || la.Name != lb.Name ||
			math.Abs(la.SpeedLimit-lb.SpeedLimit) > 1e-9 ||
			math.Abs(la.Length()-lb.Length()) > 1e-9 ||
			len(la.Shape) != len(lb.Shape) {
			t.Errorf("link %d mismatch: %+v vs %+v", i, la, lb)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildSerializable(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEquivalent(t, g, g2)
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("expected version error")
	}
}
