package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// nocursorPred replaces a predictor's cursor with a re-walking one, so
// every consumer evaluates the stateless Predict path — the "before"
// side of the cursor equivalence and gate benchmarks.
type nocursorPred struct{ Predictor }

// NewCursor implements Predictor.
func (p nocursorPred) NewCursor(rep Report) Cursor { return &rewalkCursor{p: p.Predictor, rep: rep} }

// nocursorGraphPred does the same for graph-bound predictors, so
// NewMapSource still sees a GraphPredictor.
type nocursorGraphPred struct{ GraphPredictor }

// NewCursor implements Predictor.
func (p nocursorGraphPred) NewCursor(rep Report) Cursor {
	return &rewalkCursor{p: p.GraphPredictor, rep: rep}
}

// rewalkCursor answers every query from the report: At is Predict, and
// AtState a fresh cursor of the wrapped predictor.
type rewalkCursor struct {
	p   Predictor
	rep Report
}

func (c *rewalkCursor) At(t float64) geo.Point { return c.p.Predict(c.rep, t) }
func (c *rewalkCursor) AtState(t float64) (geo.Point, float64) {
	return c.p.NewCursor(c.rep).AtState(t)
}
func (c *rewalkCursor) Report() Report   { return c.rep }
func (c *rewalkCursor) Reset(rep Report) { c.rep = rep }

// buildRing builds a closed ring road of n nodes with radius r: every
// node has exactly two links, so the smallest-angle walk circulates
// forever without dead ends.
func buildRing(t testing.TB, n int, r float64) (*roadmap.Graph, []roadmap.LinkID) {
	t.Helper()
	b := roadmap.NewBuilder()
	ids := make([]roadmap.NodeID, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		ids[i] = b.AddNode(geo.Pt(r*math.Cos(ang), r*math.Sin(ang)))
	}
	links := make([]roadmap.LinkID, n)
	for i := 0; i < n; i++ {
		links[i] = b.AddLink(roadmap.LinkSpec{From: ids[i], To: ids[(i+1)%n]})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, links
}

// buildDeadEnd builds a one-way two-link path that ends at a node with
// no outgoing links.
func buildDeadEnd(t testing.TB) (*roadmap.Graph, []roadmap.LinkID) {
	t.Helper()
	b := roadmap.NewBuilder()
	a := b.AddNode(geo.Pt(0, 0))
	bb := b.AddNode(geo.Pt(400, 0))
	c := b.AddNode(geo.Pt(400, 300))
	l0 := b.AddLink(roadmap.LinkSpec{From: a, To: bb, OneWay: true})
	l1 := b.AddLink(roadmap.LinkSpec{From: bb, To: c, OneWay: true})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, []roadmap.LinkID{l0, l1}
}

// schedules returns adversarial query-time schedules around a report at
// rep.T: monotone, descending, random jumps, repeats, and times before
// the report.
func schedules(repT float64) map[string][]float64 {
	monotone := make([]float64, 120)
	for i := range monotone {
		monotone[i] = repT + 0.7*float64(i)
	}
	descending := make([]float64, 60)
	for i := range descending {
		descending[i] = repT + 90 - 1.5*float64(i)
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, 150)
	for i := range random {
		random[i] = repT - 10 + 130*rng.Float64()
	}
	return map[string][]float64{
		"monotone":   monotone,
		"descending": descending,
		"random":     random,
		"repeats":    {repT + 5, repT + 5, repT + 5, repT + 80, repT + 80, repT + 5},
		"pre-report": {repT - 20, repT - 1, repT, repT + 3},
	}
}

// assertCursorEquivalence queries a fresh cursor, a cursor re-aimed at
// rep and the stateless predictor over every schedule and requires
// bit-identical positions.
func assertCursorEquivalence(t *testing.T, p Predictor, rep Report) {
	t.Helper()
	for name, sched := range schedules(rep.T) {
		c := p.NewCursor(rep)
		r := reaimedCursor(p, rep)
		for i, qt := range sched {
			want := p.Predict(rep, qt)
			if got := c.At(qt); got != want {
				t.Fatalf("%s[%d] t=%v: cursor %v != stateless %v", name, i, qt, got, want)
			}
			if got := r.At(qt); got != want {
				t.Fatalf("%s[%d] t=%v: re-aimed cursor %v != stateless %v", name, i, qt, got, want)
			}
		}
	}
}

// reaimedCursor mints a cursor on a report unrelated to rep (another
// time, position, speed, offset and turn rate on the same link), walks
// it well past that report, and then re-aims it at rep with Reset.
func reaimedCursor(p Predictor, rep Report) Cursor {
	other := rep
	other.Seq, other.T = rep.Seq+9, rep.T+1000
	other.Pos = geo.Pt(rep.Pos.X+37, rep.Pos.Y-11)
	other.V, other.Heading, other.Omega = rep.V+7, rep.Heading+1, -rep.Omega-0.02
	other.Offset, other.RouteOffset = 0, rep.RouteOffset+13
	c := p.NewCursor(other)
	c.At(other.T + 40)
	c.At(other.T + 300)
	c.Reset(rep)
	return c
}

func TestCursorStatelessEquivalenceAllPredictors(t *testing.T) {
	ring, ringLinks := buildRing(t, 24, 500)
	chain, chainLinks := buildCurveChain(t)
	turns := roadmap.NewTurnTable()
	turns.Observe(roadmap.Dir{Link: ringLinks[0], Forward: true}, roadmap.Dir{Link: ringLinks[1], Forward: true}, 3)

	route, err := roadmap.NewRoute(chain, []roadmap.Dir{
		{Link: chainLinks[0], Forward: true},
		{Link: chainLinks[1], Forward: true},
		{Link: chainLinks[2], Forward: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	onRing := Report{T: 10, Pos: geo.Pt(500, 0), V: 23, Heading: math.Pi / 2,
		Link: roadmap.Dir{Link: ringLinks[0], Forward: true}, Offset: 17}
	onRingBackward := Report{T: 10, Pos: geo.Pt(500, 0), V: 19, Heading: -math.Pi / 2,
		Link: roadmap.Dir{Link: ringLinks[3], Forward: false}, Offset: 4}
	onChain := Report{T: 0, Pos: geo.Pt(100, 0), V: 30, Heading: 0,
		Link: roadmap.Dir{Link: chainLinks[0], Forward: true}, Offset: 100}
	noLink := Report{T: 5, Pos: geo.Pt(3, 4), V: 12, Heading: 1.1, Link: roadmap.NoDir}
	standing := Report{T: 10, Pos: geo.Pt(500, 0), V: 0, Heading: 0,
		Link: roadmap.Dir{Link: ringLinks[0], Forward: true}, Offset: 17}
	routeRep := Report{T: 2, Pos: geo.Pt(0, 0), V: 25, Heading: 0, RouteOffset: 55}
	turning := Report{T: 0, Pos: geo.Pt(0, 0), V: 14, Heading: 0.3, Omega: 0.04}

	cases := []struct {
		name string
		p    Predictor
		rep  Report
	}{
		{"static", StaticPredictor{}, noLink},
		{"linear", LinearPredictor{}, noLink},
		{"ctrv", CTRVPredictor{}, turning},
		{"ctrv-straight", CTRVPredictor{}, noLink},
		{"map-ring", NewMapPredictor(ring), onRing},
		{"map-ring-backward", NewMapPredictor(ring), onRingBackward},
		{"map-chain", NewMapPredictor(chain), onChain},
		{"map-nolink-fallback", NewMapPredictor(ring), noLink},
		{"map-standing", NewMapPredictor(ring), standing},
		{"map-mainroad", &MapPredictor{G: ring, Chooser: roadmap.MainRoadChooser{}}, onRing},
		{"map-probability", &MapPredictor{G: ring, Chooser: roadmap.ProbabilityChooser{Turns: turns}}, onRing},
		{"speedcap", NewSpeedCappedMapPredictor(ring, false), onRing},
		{"speedcap-raise", NewSpeedCappedMapPredictor(ring, true), onRing},
		{"speedcap-nolink", NewSpeedCappedMapPredictor(ring, false), noLink},
		{"route", &RoutePredictor{Route: route}, routeRep},
		{"stateless-fallback-wrapper", nocursorPred{NewMapPredictor(ring)}, onRing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertCursorEquivalence(t, tc.p, tc.rep) })
	}
}

func TestCursorDeadEndEquivalence(t *testing.T) {
	g, links := buildDeadEnd(t)
	rep := Report{T: 0, Pos: geo.Pt(0, 0), V: 40, Heading: 0,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	for _, p := range []Predictor{NewMapPredictor(g), NewSpeedCappedMapPredictor(g, false)} {
		assertCursorEquivalence(t, p, rep)
	}
	// The walk parks at the dead-end node once the path is consumed.
	c := NewMapPredictor(g).NewCursor(rep)
	if got := c.At(1000); got != geo.Pt(400, 300) {
		t.Errorf("parked at %v, want dead-end node", got)
	}
	// Backwards after parking: transparently restarts mid-path.
	if got, want := c.At(5), NewMapPredictor(g).Predict(rep, 5); got != want {
		t.Errorf("post-park rewind %v != stateless %v", got, want)
	}
}

// TestCursorWalkCapEquivalence drives the walk around a 4 m ring far
// past the 10000-transition guard and checks the cursor pins exactly
// where the stateless walk caps out, across and beyond the threshold.
func TestCursorWalkCapEquivalence(t *testing.T) {
	g, links := buildRing(t, 4, math.Sqrt2/2) // sides of length 1 m
	rep := Report{T: 0, Pos: g.Node(0).Pt, V: 100, Heading: 0,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	for _, p := range []Predictor{NewMapPredictor(g), NewSpeedCappedMapPredictor(g, false)} {
		c := p.NewCursor(rep)
		// 100 m/s x 200 s = 20000 m >> 10000 x 1 m cap.
		for _, qt := range []float64{1, 50, 99, 100.5, 150, 200, 120, 10, 200} {
			want := p.Predict(rep, qt)
			if got := c.At(qt); got != want {
				t.Fatalf("%s t=%v: cursor %v != stateless %v", p.Name(), qt, got, want)
			}
		}
	}
}

// TestSourceCursorUpdateStreamEquivalence feeds the same trace to each
// kind of source and to its re-walking twin, whose cursor answers every
// deviation check with a stateless Predict from the last report, and
// requires bit-identical update streams: the protocol's source/server
// agreement must not depend on how the deviation check is evaluated.
func TestSourceCursorUpdateStreamEquivalence(t *testing.T) {
	g, links := buildRing(t, 24, 500)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		t.Fatal(err)
	}

	cfg := SourceConfig{US: 60, UP: 2, Sightings: 2}
	plain := func(p Predictor) func(bool) (*Source, error) {
		return func(twin bool) (*Source, error) {
			if twin {
				return NewSource(cfg, nocursorPred{p})
			}
			return NewSource(cfg, p)
		}
	}
	cases := []struct {
		name string
		mk   func(twin bool) (*Source, error)
	}{
		{"static", plain(StaticPredictor{})},
		{"linear", plain(LinearPredictor{})},
		{"ctrv", plain(CTRVPredictor{})},
		{"known-route", func(twin bool) (*Source, error) {
			rp := &RoutePredictor{Route: route}
			if !twin {
				return NewSource(cfg, rp)
			}
			src, err := NewSource(cfg, nocursorPred{rp})
			if src != nil {
				src.route = rp.Route // the wrapper hides the route from NewSource
			}
			return src, err
		}},
		{"map", func(twin bool) (*Source, error) {
			var pred GraphPredictor = NewMapPredictor(g)
			if twin {
				pred = nocursorGraphPred{pred}
			}
			return NewMapSource(cfg, pred)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withCursor, err := tc.mk(false)
			if err != nil {
				t.Fatal(err)
			}
			rewalk, err := tc.mk(true)
			if err != nil {
				t.Fatal(err)
			}
			// Drive around the ring with varying speed: the reported speed
			// goes stale between updates, so the deviation trigger fires
			// repeatedly.
			rng := rand.New(rand.NewSource(3))
			s, v := 0.0, 15.0
			var updates int
			for k := 0; k < 900; k++ {
				v += rng.Float64()*2 - 1
				v = math.Max(6, math.Min(24, v))
				s += v
				for s >= route.Length() {
					s -= route.Length()
				}
				pos, _ := route.PointAt(s)
				sample := trace.Sample{T: float64(k), Pos: pos}
				u1, ok1 := withCursor.OnSample(sample)
				u2, ok2 := rewalk.OnSample(sample)
				if ok1 != ok2 {
					t.Fatalf("sample %d: cursor triggered=%v re-walk triggered=%v", k, ok1, ok2)
				}
				if ok1 {
					updates++
					if u1 != u2 {
						t.Fatalf("sample %d: update mismatch\ncursor:  %+v\nre-walk: %+v", k, u1, u2)
					}
				}
			}
			if updates < 5 {
				t.Fatalf("only %d updates; scenario too tame to prove equivalence", updates)
			}
		})
	}
}

// TestServerCursorReportReplacement checks the server's cached cursor is
// invalidated by Apply and answers every query — monotone, rewinding,
// and across report replacements — identically to a stateless replica.
func TestServerCursorReportReplacement(t *testing.T) {
	g, links := buildRing(t, 24, 500)
	mp := NewMapPredictor(g)
	srv := NewServer(mp)

	rep1 := Report{Seq: 1, T: 0, Pos: geo.Pt(500, 0), V: 20, Heading: math.Pi / 2,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	rep2 := Report{Seq: 2, T: 40, Pos: geo.Pt(-500, 0), V: 10, Heading: -math.Pi / 2,
		Link: roadmap.Dir{Link: links[12], Forward: true}, Offset: 3}

	srv.Apply(Update{Report: rep1})
	for _, qt := range []float64{1, 7, 30, 12, 35} {
		got, _ := srv.Position(qt)
		if want := mp.Predict(rep1, qt); got != want {
			t.Fatalf("rep1 t=%v: %v != %v", qt, got, want)
		}
	}
	srv.Apply(Update{Report: rep2})
	for _, qt := range []float64{41, 60, 45, 300, 10} {
		got, _ := srv.Position(qt)
		if want := mp.Predict(rep2, qt); got != want {
			t.Fatalf("rep2 t=%v: %v != %v", qt, got, want)
		}
	}
	// Stale update must not disturb the cursor binding.
	srv.Apply(Update{Report: rep1})
	got, _ := srv.Position(70)
	if want := mp.Predict(rep2, 70); got != want {
		t.Fatalf("after stale apply: %v != %v", got, want)
	}
}

// TestPredictedStateWalkHeading checks the single-advance heading: on a
// link the heading is the travel heading of the predicted segment.
func TestPredictedStateWalkHeading(t *testing.T) {
	g, links := buildRing(t, 4, math.Sqrt2*500) // a 1000 m square ring
	mp := NewMapPredictor(g)
	// Start on the link from (707,-707)-ish corner... use exact: nodes at
	// angles 0, 90, 180, 270 deg; link 0 goes node0 -> node1.
	rep := Report{T: 0, Pos: g.Node(0).Pt, V: 10, Heading: 0,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	link := g.Link(links[0])
	pos, h := PredictedState(mp, rep, 20)
	wantPos := mp.Predict(rep, 20)
	if pos != wantPos {
		t.Fatalf("PredictedState pos %v != Predict %v", pos, wantPos)
	}
	if want := link.EntryHeading(true); math.Abs(geo.AngleDiff(h, want)) > 1e-9 {
		t.Errorf("heading %v, want link heading %v", h, want)
	}
	// After crossing onto the next ring link the heading follows it.
	pos2, h2 := PredictedState(mp, rep, 150) // 1500 m: 500 m onto link 1
	if pos2 != mp.Predict(rep, 150) {
		t.Fatalf("PredictedState pos2 diverged")
	}
	if want := g.Link(links[1]).EntryHeading(true); math.Abs(geo.AngleDiff(h2, want)) > 1e-9 {
		t.Errorf("heading after corner %v, want %v", h2, want)
	}
	// CTRV: heading advances with the turn rate.
	turning := Report{T: 0, Pos: geo.Pt(0, 0), V: 14, Heading: 0.3, Omega: 0.05}
	_, hc := PredictedState(CTRVPredictor{}, turning, 10)
	if want := geo.NormalizeAngle(0.3 + 0.05*10); math.Abs(geo.AngleDiff(hc, want)) > 1e-9 {
		t.Errorf("ctrv heading %v, want %v", hc, want)
	}
}

// TestCursorZeroAllocSteadyState is the allocation gate: once warm, a
// monotone map-cursor advance must not touch the heap, even while
// crossing intersections.
func TestCursorZeroAllocSteadyState(t *testing.T) {
	g, links := buildRing(t, 24, 500)
	rep := Report{T: 0, Pos: geo.Pt(500, 0), V: 20, Heading: math.Pi / 2,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	for _, p := range []Predictor{NewMapPredictor(g), NewSpeedCappedMapPredictor(g, false)} {
		c := p.NewCursor(rep)
		qt := 0.0
		c.At(1) // warm: allocates the scratch buffer once
		var sink geo.Point
		allocs := testing.AllocsPerRun(300, func() {
			qt += 0.5
			sink = c.At(qt)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state advance, want 0", p.Name(), allocs)
		}
		_ = sink
	}
}

// TestCursorPays pins the server's cursor selection: the closed-form
// predictors answer from the report, every other predictor through a
// cached cursor.
func TestCursorPays(t *testing.T) {
	if cursorPays(LinearPredictor{}) || cursorPays(StaticPredictor{}) || cursorPays(CTRVPredictor{}) {
		t.Error("cursorPays must be false for closed-form predictors")
	}
	if !cursorPays(NewMapPredictor(nil)) || !cursorPays(NewSpeedCappedMapPredictor(nil, false)) || !cursorPays(&RoutePredictor{}) {
		t.Error("cursorPays must be true for walk-based predictors")
	}
}

func ExampleLinearPredictor_NewCursor() {
	rep := Report{T: 0, Pos: geo.Pt(0, 0), V: 10, Heading: 0}
	c := LinearPredictor{}.NewCursor(rep)
	p := c.At(3)
	fmt.Printf("%.0f,%.0f\n", p.X, p.Y)
	// Output: 30,0
}
