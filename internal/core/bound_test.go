package core

import (
	"fmt"
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// TestDisplacementBoundContract pins the per-predictor bound values and
// the registration-time BoundsDisplacement classification.
func TestDisplacementBoundContract(t *testing.T) {
	g, _ := buildCurveChain(t)
	rep := Report{T: 0, Pos: geo.Pt(100, 0), V: 17.5}
	cases := []struct {
		pred    Predictor
		bounded bool
		want    float64
	}{
		{StaticPredictor{}, true, 0},
		{LinearPredictor{}, true, 17.5},
		{CTRVPredictor{}, true, 17.5},
		{NewMapPredictor(g), true, 17.5},
		{NewSpeedCappedMapPredictor(g, false), true, 17.5},
		{NewSpeedCappedMapPredictor(g, true), false, math.Inf(1)},
		{&RoutePredictor{}, true, 17.5},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%T", tc.pred)
		if got := BoundsDisplacement(tc.pred); got != tc.bounded {
			t.Errorf("%s: BoundsDisplacement = %v, want %v", name, got, tc.bounded)
		}
		if got := tc.pred.DisplacementBound(rep); got != tc.want {
			t.Errorf("%s: DisplacementBound = %v, want %v", name, got, tc.want)
		}
	}
}

// TestDisplacementBoundIsConservative checks the contract itself: for
// every bounded predictor, the predicted position never drifts from the
// reported position faster than DisplacementBound allows (plus the
// map-matching epsilon between rep.Pos and the walk's start point).
func TestDisplacementBoundIsConservative(t *testing.T) {
	g, links := buildCurveChain(t)
	dirs := []roadmap.Dir{
		{Link: links[0], Forward: true},
		{Link: links[1], Forward: true},
		{Link: links[2], Forward: true},
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		t.Fatal(err)
	}
	// Report slightly off the link to include the map-matching epsilon.
	rep := Report{
		T: 5, Pos: geo.Pt(100, 1.5), V: 20, Heading: 0.1, Omega: 0.05,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 100,
		RouteOffset: 100,
	}
	const matchEps = 2.0 // |rep.Pos - walk start| in this setup is 1.5 m
	preds := []Predictor{
		StaticPredictor{},
		LinearPredictor{},
		CTRVPredictor{},
		NewMapPredictor(g),
		NewSpeedCappedMapPredictor(g, false),
		&RoutePredictor{Route: route},
	}
	for _, pred := range preds {
		bound := pred.DisplacementBound(rep)
		for _, qt := range []float64{5, 5.1, 7, 15, 45, 120, 0, -10} {
			dt := math.Max(qt-rep.T, 0)
			drift := pred.Predict(rep, qt).Dist(rep.Pos)
			if drift > bound*dt+matchEps {
				t.Errorf("%T at t=%v: drift %.3f exceeds bound %.1f*%.1f+%.1f",
					pred, qt, drift, bound, dt, matchEps)
			}
		}
	}
}
