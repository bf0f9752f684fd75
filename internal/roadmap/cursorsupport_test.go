package roadmap

import (
	"math"
	"math/rand"
	"testing"

	"mapdr/internal/geo"
)

// buildStar builds one centre node with five spokes (one of them
// one-way outbound, one one-way inbound) to exercise every OutgoingAppend
// filter case.
func buildStar(t *testing.T) (*Graph, NodeID, []LinkID) {
	t.Helper()
	b := NewBuilder()
	centre := b.AddNode(geo.Pt(0, 0))
	var links []LinkID
	for i := 0; i < 5; i++ {
		ang := 2 * math.Pi * float64(i) / 5
		n := b.AddNode(geo.PolarPoint(geo.Pt(0, 0), ang, 300))
		spec := LinkSpec{From: centre, To: n}
		switch i {
		case 1:
			spec.OneWay = true // usable out of centre only
		case 2:
			spec.From, spec.To = n, centre
			spec.OneWay = true // usable into centre only
		}
		links = append(links, b.AddLink(spec))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, centre, links
}

// TestOutgoingAppendMatchesOutgoing checks OutgoingAppend against the
// node adjacency filtered by hand, for every node and exclusion.
func TestOutgoingAppendMatchesOutgoing(t *testing.T) {
	g, centre, links := buildStar(t)
	excludes := []Dir{NoDir}
	for _, l := range links {
		excludes = append(excludes, Dir{Link: l, Forward: true}, Dir{Link: l, Forward: false})
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		for _, ex := range excludes {
			// Reference: the node's adjacency minus the excluded link.
			var want []Dir
			for _, d := range g.Node(n).out {
				if !ex.IsValid() || d.Link != ex.Link {
					want = append(want, d)
				}
			}
			got := g.OutgoingAppend(nil, n, ex)
			if len(got) != len(want) {
				t.Fatalf("node %d exclude %+v: len %d != %d", n, ex, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d exclude %+v: [%d] %+v != %+v", n, ex, i, got[i], want[i])
				}
			}
		}
	}
	// The append contract: an existing prefix is preserved and the
	// buffer is reusable without reallocation once grown.
	sentinel := Dir{Link: links[0], Forward: true}
	buf := append(make([]Dir, 0, 16), sentinel)
	buf = g.OutgoingAppend(buf, centre, NoDir)
	if buf[0] != sentinel {
		t.Fatal("OutgoingAppend clobbered the dst prefix")
	}
	buf = buf[:0]
	allocs := testing.AllocsPerRun(50, func() {
		buf = g.OutgoingAppend(buf[:0], centre, sentinel)
	})
	if allocs != 0 {
		t.Errorf("reused buffer still allocates: %v allocs/op", allocs)
	}
}

func TestPointAtHintMatchesPointAt(t *testing.T) {
	// A winding route over a small grid of links with shape points.
	b := NewBuilder()
	var nodes []NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, b.AddNode(geo.Pt(float64(i)*200, float64(i%2)*150)))
	}
	var dirs []Dir
	for i := 0; i+1 < len(nodes); i++ {
		mid := geo.Pt(float64(i)*200+100, 75+20*float64(i%3))
		l := b.AddLink(LinkSpec{From: nodes[i], To: nodes[i+1], Shape: geo.Polyline{mid}})
		dirs = append(dirs, Dir{Link: l, Forward: true})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRoute(g, dirs)
	if err != nil {
		t.Fatal(err)
	}

	offsets := []float64{-50, 0, 1e-9, 100.5, r.Length() / 2, r.Length() - 1e-9, r.Length(), r.Length() + 500}
	c := 0.0 // link boundaries, summed as NewRoute sums them
	for _, d := range r.Dirs() {
		offsets = append(offsets, c, c-1e-9, c+1e-9)
		c += g.Link(d.Link).Length()
	}
	offsets = append(offsets, c, c-1e-9, c+1e-9)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		offsets = append(offsets, rng.Float64()*r.Length())
	}
	hints := []int{-5, 0, 1, r.Len() / 2, r.Len() - 1, r.Len() + 7}
	for _, s := range offsets {
		wantP, wantH := r.PointAt(s)
		for _, hint := range hints {
			gotP, gotH, idx := r.PointAtHint(s, hint)
			if gotP != wantP || gotH != wantH {
				t.Fatalf("s=%v hint=%d: (%v,%v) != (%v,%v)", s, hint, gotP, gotH, wantP, wantH)
			}
			if idx < 0 || idx >= r.Len() {
				t.Fatalf("s=%v hint=%d: link index %d out of range", s, hint, idx)
			}
		}
	}
	// Monotone use: the returned hint converges so neighbouring queries
	// stay O(1).
	hint := 0
	for s := 0.0; s < r.Length(); s += 7 {
		_, _, hint = r.PointAtHint(s, hint)
	}
	if hint != r.Len()-1 {
		t.Errorf("final hint %d, want %d", hint, r.Len()-1)
	}
}
