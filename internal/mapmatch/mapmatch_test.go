package mapmatch

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// buildL returns a two-link L network: (0,0)->(1000,0)->(1000,1000).
func buildL(t *testing.T) (*roadmap.Graph, []roadmap.LinkID) {
	t.Helper()
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1000, 0))
	n2 := b.AddNode(geo.Pt(1000, 1000))
	l0 := b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	l1 := b.AddLink(roadmap.LinkSpec{From: n1, To: n2})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []roadmap.LinkID{l0, l1}
}

// buildForkedY returns a Y: approach west->junction, then two branches at
// +20 and -25 degrees.
func buildForkedY(t *testing.T) (*roadmap.Graph, roadmap.LinkID, roadmap.LinkID, roadmap.LinkID) {
	t.Helper()
	b := roadmap.NewBuilder()
	w := b.AddNode(geo.Pt(-1000, 0))
	j := b.AddNode(geo.Pt(0, 0))
	up := b.AddNode(geo.PolarPoint(geo.Pt(0, 0), geo.Rad(20), 1000))
	down := b.AddNode(geo.PolarPoint(geo.Pt(0, 0), geo.Rad(-25), 1000))
	approach := b.AddLink(roadmap.LinkSpec{From: w, To: j})
	upL := b.AddLink(roadmap.LinkSpec{From: j, To: up})
	downL := b.AddLink(roadmap.LinkSpec{From: j, To: down})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, approach, upL, downL
}

func TestMatcherInitAndKeep(t *testing.T) {
	g, links := buildL(t)
	m := New(g, DefaultConfig())
	r := m.Feed(0, geo.Pt(100, 4), 0)
	if !r.Matched || r.Event != EventInit {
		t.Fatalf("first feed = %+v", r)
	}
	if r.Dir.Link != links[0] || !r.Dir.Forward {
		t.Errorf("matched %+v", r.Dir)
	}
	if math.Abs(r.Offset-100) > 1e-9 || math.Abs(r.Dist-4) > 1e-9 {
		t.Errorf("offset/dist = %v/%v", r.Offset, r.Dist)
	}
	if r.Corrected.Dist(geo.Pt(100, 0)) > 1e-9 {
		t.Errorf("corrected = %v", r.Corrected)
	}
	r = m.Feed(1, geo.Pt(130, -3), 0)
	if r.Event != EventKeep || r.Dir.Link != links[0] {
		t.Fatalf("second feed = %+v", r)
	}
}

func TestMatcherForwardTracking(t *testing.T) {
	g, links := buildL(t)
	m := New(g, DefaultConfig())
	// Travel east along l0, then turn north onto l1. The position right
	// after the corner is >u_m from l0 only once y > u_m.
	m.Feed(0, geo.Pt(900, 2), 0)
	m.Feed(1, geo.Pt(980, 1), 0)
	r := m.Feed(2, geo.Pt(1001, 40), geo.Rad(90))
	if r.Event != EventForward {
		t.Fatalf("expected forward-tracking, got %+v", r)
	}
	if r.Dir.Link != links[1] || !r.Dir.Forward {
		t.Errorf("transitioned to %+v", r.Dir)
	}
	if math.Abs(r.Offset-40) > 2 {
		t.Errorf("offset on new link = %v", r.Offset)
	}
}

func TestMatcherDirectionInference(t *testing.T) {
	g, links := buildL(t)
	m := New(g, DefaultConfig())
	// Move east->west (against link direction) with no heading hint: the
	// matcher must flip to backward travel from offset regression.
	m.Feed(0, geo.Pt(500, 2), math.NaN())
	r := m.Feed(1, geo.Pt(480, 2), math.NaN())
	if r.Dir.Forward {
		t.Error("direction should flip to backward")
	}
	// Directed offset counts from the travel start (the To node).
	if math.Abs(r.Offset-(1000-480)) > 1e-6 {
		t.Errorf("directed offset = %v", r.Offset)
	}
	_ = links
}

func TestMatcherHeadingOrientsInitialDirection(t *testing.T) {
	g, _ := buildL(t)
	m := New(g, DefaultConfig())
	r := m.Feed(0, geo.Pt(500, 1), math.Pi) // heading west
	if r.Dir.Forward {
		t.Error("heading west should select backward travel")
	}
	m2 := New(g, DefaultConfig())
	r = m2.Feed(0, geo.Pt(500, 1), 0) // heading east
	if !r.Dir.Forward {
		t.Error("heading east should select forward travel")
	}
}

func TestMatcherBacktracking(t *testing.T) {
	g, approach, upL, downL := buildForkedY(t)
	m := New(g, Config{MatchRadius: 25, ReacquireEvery: 5, BacktrackDepth: 2})
	// Approach the junction heading east.
	m.Feed(0, geo.Pt(-200, 3), 0)
	m.Feed(1, geo.Pt(-60, 2), 0)
	// Just past the junction both branches are within u_m of each other;
	// nudge the first post-junction point so the wrong (down) branch is
	// selected by forward-tracking.
	r := m.Feed(2, geo.Pt(40, -25), 0)
	if r.Event != EventForward || r.Dir.Link != downL {
		t.Fatalf("setup: expected wrong branch, got %+v", r)
	}
	// The object actually follows the up branch: as it diverges past u_m
	// from the down branch, back-tracking must correct to the up branch.
	var corrected *Result
	for i := 0; i < 20; i++ {
		d := 80 + 40*float64(i)
		p := geo.PolarPoint(geo.Pt(0, 0), geo.Rad(20), d)
		rr := m.Feed(float64(3+i), p, geo.Rad(20))
		if rr.Event == EventBacktrack {
			corrected = &rr
			break
		}
	}
	if corrected == nil {
		t.Fatal("back-tracking never fired")
	}
	if corrected.Dir.Link != upL {
		t.Errorf("back-tracked to %+v, want up branch", corrected.Dir)
	}
	_ = approach
}

func TestMatcherLostAndReacquire(t *testing.T) {
	g, links := buildL(t)
	m := New(g, Config{MatchRadius: 20, ReacquireEvery: 5, BacktrackDepth: 2})
	m.Feed(0, geo.Pt(500, 0), 0)
	// Jump far off the map: no link within u_m anywhere near.
	r := m.Feed(1, geo.Pt(500, 500), 0)
	if r.Event != EventLost || r.Matched {
		t.Fatalf("expected lost, got %+v", r)
	}
	if m.Matched() {
		t.Error("matcher still matched after lost")
	}
	// Re-acquisition is rate limited: an attempt 1 s later is suppressed.
	r = m.Feed(2, geo.Pt(600, 2), 0)
	if r.Event != EventSearching {
		t.Fatalf("expected searching (rate limited), got %+v", r)
	}
	// After the period passes, the matcher reacquires.
	r = m.Feed(7, geo.Pt(650, 2), 0)
	if r.Event != EventReacquired || r.Dir.Link != links[0] {
		t.Fatalf("expected reacquired, got %+v", r)
	}
}

func TestMatcherDeadEndUTurn(t *testing.T) {
	// Single dead-end link; the object drives to the end and comes back.
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(500, 0))
	l := b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(g, DefaultConfig())
	m.Feed(0, geo.Pt(400, 1), 0)
	m.Feed(1, geo.Pt(490, 1), 0)
	// Past the end, still within u_m of the link: stays matched (Keep)
	// because projection clamps to the endpoint.
	r := m.Feed(2, geo.Pt(510, 1), 0)
	if !r.Matched {
		t.Fatalf("expected still matched near dead end, got %+v", r)
	}
	// Coming back: direction flips.
	m.Feed(3, geo.Pt(450, -1), math.Pi)
	r = m.Feed(4, geo.Pt(400, -1), math.Pi)
	if r.Dir.Link != l || r.Dir.Forward {
		t.Errorf("after U-turn: %+v", r.Dir)
	}
}

func TestMatcherReset(t *testing.T) {
	g, _ := buildL(t)
	m := New(g, DefaultConfig())
	m.Feed(0, geo.Pt(100, 0), 0)
	if !m.Matched() {
		t.Fatal("not matched")
	}
	m.Reset()
	if m.Matched() || m.Current().IsValid() {
		t.Error("reset did not clear state")
	}
	// After reset, the next feed acquires immediately again.
	r := m.Feed(100, geo.Pt(100, 0), 0)
	if r.Event != EventInit {
		t.Errorf("after reset = %+v", r)
	}
}

func TestMatcherPanicsOnBadRadius(t *testing.T) {
	g, _ := buildL(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(g, Config{MatchRadius: 0})
}

func TestMatcherNoMatchFarFromMap(t *testing.T) {
	g, _ := buildL(t)
	m := New(g, DefaultConfig())
	r := m.Feed(0, geo.Pt(9000, 9000), 0)
	if r.Matched || r.Event != EventSearching {
		t.Errorf("far point = %+v", r)
	}
}

// TestMatcherFeedAllocs pins the matcher's per-sample path: after Reset,
// a run that acquires the L network's first link through the spatial
// index, keeps it, and forward-tracks through the corner onto the second
// link allocates nothing — candidate links, history and index scratch
// are buffers the matcher owns.
func TestMatcherFeedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; skipped under the race detector")
	}
	g, links := buildL(t)
	m := New(g, DefaultConfig())
	var last Result
	forward := 0
	run := func() {
		m.Reset()
		for i := 0; i <= 18; i++ {
			var p geo.Point
			if i < 10 {
				p = geo.Pt(100*float64(i)+5, 3) // east along the first link
			} else {
				p = geo.Pt(1002, 100*float64(i-9)) // north along the second
			}
			last = m.Feed(float64(i), p, math.NaN())
			if last.Event == EventForward {
				forward++
			}
		}
	}
	run()
	if forward == 0 || !last.Matched || last.Dir.Link != links[1] {
		t.Fatalf("the run must forward-track onto the second link: last %+v, %d forward events", last, forward)
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("Matcher.Feed: %v allocs per run of 19 samples, want 0", allocs)
	}
}
