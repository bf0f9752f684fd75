package core

import (
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// Predictor is the shared prediction function pred(o_r, param, t) of the
// general dead-reckoning protocol (paper §2, Fig. 1). Implementations
// must be pure: identical inputs produce identical outputs at source and
// server, which is what makes the deviation bound enforceable.
//
// It is the one predictor contract: besides the prediction itself every
// predictor states its incremental evaluator (NewCursor) and how fast
// its prediction can drift from the report (DisplacementBound, see
// bound.go), so no consumer probes for either.
type Predictor interface {
	// Predict returns the assumed position of the object at time t given
	// its last report.
	Predict(rep Report, t float64) geo.Point
	// Name identifies the predictor in experiment output.
	Name() string
	// NewCursor returns a cursor bound to rep whose At answers are
	// bit-identical to Predict over rep.
	NewCursor(rep Report) Cursor
	// DisplacementBound returns an upper bound in m/s on the predicted
	// position's drift away from rep.Pos, or +Inf when the predictor
	// admits none. Which of the two it is depends on the predictor
	// alone, never on rep (BoundsDisplacement relies on it).
	DisplacementBound(rep Report) float64
}

// StaticPredictor assumes the object rests at its reported position. The
// deviation trigger then degenerates to the non dead-reckoning
// distance-based reporting protocol of the paper's earlier work [6].
type StaticPredictor struct{}

// Predict implements Predictor.
func (StaticPredictor) Predict(rep Report, _ float64) geo.Point { return rep.Pos }

// Name implements Predictor.
func (StaticPredictor) Name() string { return "distance-based" }

// LinearPredictor extrapolates along the reported heading with the
// reported speed ("linear prediction", paper §2).
type LinearPredictor struct{}

// Predict implements Predictor.
func (LinearPredictor) Predict(rep Report, t float64) geo.Point {
	dt := t - rep.T
	if dt <= 0 {
		return rep.Pos
	}
	return geo.PolarPoint(rep.Pos, rep.Heading, rep.V*dt)
}

// Name implements Predictor.
func (LinearPredictor) Name() string { return "linear-pred" }

// GraphPredictor is a predictor bound to a road network — the map-based
// predictor family. Sources built with NewMapSource run a map matcher
// over the predictor's graph.
type GraphPredictor interface {
	Predictor
	// Graph returns the road network the predictor extrapolates on.
	Graph() *roadmap.Graph
}

// MapPredictor advances the object along its reported link with the
// reported speed, selecting an outgoing link at every intersection with
// the TurnChooser — the map-based dead-reckoning prediction of paper §3.
// Reports without a valid link fall back to linear prediction.
type MapPredictor struct {
	G       *roadmap.Graph
	Chooser roadmap.TurnChooser
}

// NewMapPredictor returns a map predictor with the paper's default
// smallest-angle turn chooser.
func NewMapPredictor(g *roadmap.Graph) *MapPredictor {
	return &MapPredictor{G: g, Chooser: roadmap.SmallestAngleChooser{}}
}

// Predict implements Predictor. It runs the same walk its cursor
// advances incrementally (see MapPredictor.NewCursor), restarted from
// the report, so stateless and cursor predictions are bit-identical by
// construction. The walk buffers intersection alternatives in one stack
// scratch slice instead of allocating per intersection.
func (mp *MapPredictor) Predict(rep Report, t float64) geo.Point {
	if !rep.Link.IsValid() {
		return (LinearPredictor{}).Predict(rep, t)
	}
	dt := t - rep.T
	if dt <= 0 {
		return rep.Pos
	}
	var buf [8]roadmap.Dir
	scratch := buf[:0]
	w := startWalk(rep)
	p, _ := w.advanceDist(mp.G, mp.Chooser, rep.V*dt, &scratch)
	return p
}

// Name implements Predictor.
func (mp *MapPredictor) Name() string {
	if _, ok := mp.Chooser.(roadmap.SmallestAngleChooser); ok {
		return "map-based"
	}
	return "map-based+" + mp.Chooser.Name()
}

// Graph implements GraphPredictor.
func (mp *MapPredictor) Graph() *roadmap.Graph { return mp.G }

// RoutePredictor advances the object along a route known in advance to
// both source and server — the Wolfson et al. baseline the paper compares
// against conceptually ("dead-reckoning with known route", §2).
type RoutePredictor struct {
	Route *roadmap.Route
}

// Predict implements Predictor.
func (rp *RoutePredictor) Predict(rep Report, t float64) geo.Point {
	dt := t - rep.T
	if dt < 0 {
		dt = 0
	}
	p, _ := rp.Route.PointAt(rep.RouteOffset + rep.V*dt)
	return p
}

// Name implements Predictor.
func (rp *RoutePredictor) Name() string { return "known-route" }

// PredictedState returns the predicted position and travel heading at
// time t in a single advance of a cursor minted for rep.
func PredictedState(p Predictor, rep Report, t float64) (geo.Point, float64) {
	return p.NewCursor(rep).AtState(t)
}
