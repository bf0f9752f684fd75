package core

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// FuzzPredictorContract holds every predictor to the Predictor contract
// on finite reports and finite query times (a store refuses any other
// report): a fresh cursor's At is Predict bit for bit, a cursor re-aimed
// with Reset answers At and AtState as a fresh one does, and
// BoundsDisplacement agrees with the report's bound being finite. The
// map and route predictors run on a small ring.
//
//	go test -run '^$' -fuzz FuzzPredictorContract -fuzztime 20s ./internal/core
func FuzzPredictorContract(f *testing.F) {
	g, links := buildRing(f, 6, 200)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		f.Fatal(err)
	}
	preds := []Predictor{
		StaticPredictor{},
		LinearPredictor{},
		CTRVPredictor{},
		NewMapPredictor(g),
		NewSpeedCappedMapPredictor(g, false),
		NewSpeedCappedMapPredictor(g, true),
		&RoutePredictor{Route: route},
	}

	f.Add(10.0, 200.0, 0.0, 15.0, 1.6, 20.0, 30.0, 0.05, uint8(0), true, 25.0, 12.0)
	f.Add(0.0, -3.0, 4.0, 40.0, -0.5, 0.0, 500.0, -0.2, uint8(3), false, 400.0, 900.0)
	f.Add(5.0, 0.0, 0.0, 0.0, 0.0, 150.0, 0.0, 0.0, uint8(1), true, 4.0, 60.0)
	f.Add(-1e6, 1e3, -1e3, 1e4, 3.0, -50.0, -70.0, 1e-5, uint8(5), true, 1e6, -1e6)
	f.Fuzz(func(t *testing.T, repT, x, y, v, heading, offset, routeOffset, omega float64,
		link uint8, forward bool, q1, q2 float64) {
		for _, z := range []float64{repT, x, y, v, heading, offset, routeOffset, omega, q1, q2} {
			if math.IsNaN(z) || math.IsInf(z, 0) {
				t.Skip("non-finite input")
			}
		}
		rep := Report{Seq: 2, T: repT, Pos: geo.Pt(x, y), V: v, Heading: heading,
			Link:   roadmap.Dir{Link: links[int(link)%len(links)], Forward: forward},
			Offset: offset, RouteOffset: routeOffset, Omega: omega}
		if link >= 128 {
			rep.Link = roadmap.NoDir // the linear fall-back of the map predictors
		}
		for _, p := range preds {
			if got, want := BoundsDisplacement(p), !math.IsInf(p.DisplacementBound(rep), 1); got != want {
				t.Fatalf("%s: BoundsDisplacement %v, bound %v", p.Name(), got, p.DisplacementBound(rep))
			}
			fresh := p.NewCursor(rep)
			for _, q := range []float64{q1, q2, q1} {
				if got, want := fresh.At(q), p.Predict(rep, q); !samePoint(got, want) {
					t.Fatalf("%s t=%v: cursor %v != Predict %v", p.Name(), q, got, want)
				}
			}
			reaimed := reaimedCursor(p, rep)
			fresh = p.NewCursor(rep)
			for _, q := range []float64{q1, q2, q1} {
				got, gotH := reaimed.AtState(q)
				want, wantH := fresh.AtState(q)
				if !samePoint(got, want) || math.Float64bits(gotH) != math.Float64bits(wantH) {
					t.Fatalf("%s t=%v: re-aimed AtState (%v, %v) != fresh (%v, %v)", p.Name(), q, got, gotH, want, wantH)
				}
				if got, want := reaimed.At(q), fresh.At(q); !samePoint(got, want) {
					t.Fatalf("%s t=%v: re-aimed At %v != fresh %v", p.Name(), q, got, want)
				}
			}
		}
	})
}

// samePoint compares two points bit for bit.
func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
