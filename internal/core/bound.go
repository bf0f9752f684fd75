package core

import "math"

// Displacement bounds: how far can a predicted position drift from the
// reported position?
//
// Every paper predictor moves the object away from its report at a
// bounded rate: linear extrapolation and the CTRV arc cover at most
// V·dt of euclidean distance, and the map-based / known-route walks
// spend V·dt of arc length along road polylines, whose euclidean
// displacement is no larger. A location service exploits that bound to
// prune spatial queries — an object reported at position p at time T
// cannot answer a range query outside p ± bound·(t−T) — so the bound is
// part of the Predictor contract, not a service-side heuristic. It must
// be conservative: the true displacement at any query time t >= rep.T
// never exceeds DisplacementBound(rep)·(t−rep.T) (up to the map-matching
// epsilon between rep.Pos and the walk's start point on its link).

// DisplacementBound implements Predictor: a static object never leaves
// its reported position.
func (StaticPredictor) DisplacementBound(Report) float64 { return 0 }

// DisplacementBound implements Predictor: linear extrapolation advances
// at exactly the reported speed.
func (LinearPredictor) DisplacementBound(rep Report) float64 { return rep.V }

// DisplacementBound implements Predictor: the CTRV arc has constant
// speed V, and arc length bounds euclidean displacement.
func (CTRVPredictor) DisplacementBound(rep Report) float64 { return rep.V }

// DisplacementBound implements Predictor: the map walk spends V·dt of
// arc length along road polylines; euclidean displacement from the
// walk's start is no larger.
func (mp *MapPredictor) DisplacementBound(rep Report) float64 { return rep.V }

// DisplacementBound implements Predictor: the known-route walk advances
// the route offset by V·dt, and euclidean displacement between two
// route points is bounded by their arc distance.
func (rp *RoutePredictor) DisplacementBound(rep Report) float64 { return rep.V }

// DisplacementBound implements Predictor. With RaiseToLimit the assumed
// speed can exceed the reported speed (up to unknown link speed limits),
// so no bound is available for any report; otherwise the assumed speed
// is capped at rep.V.
func (sp *SpeedCappedMapPredictor) DisplacementBound(rep Report) float64 {
	if sp.RaiseToLimit {
		return math.Inf(1)
	}
	return rep.V
}

// BoundsDisplacement reports whether pred admits a finite displacement
// bound for every report — a static property of the predictor instance,
// so a store can decide once at registration whether the object can
// participate in bound-pruned spatial queries. Whether a predictor's
// bound is finite does not depend on the report, so the zero report
// decides it.
func BoundsDisplacement(pred Predictor) bool {
	return !math.IsInf(pred.DisplacementBound(Report{}), 1)
}

// EffectiveUncertainty is the paper's u_s evaluated at answer time: the
// radius within which the true position is guaranteed to lie when a
// query at time t is answered from a report taken at rep.T — the drift
// bound times the prediction age. It is the end-to-end staleness signal
// the telemetry layer histograms: a service answering mostly-fresh
// reports keeps it near zero however fast the fleet moves, while a
// quiet or lagging fleet grows it linearly with age. Queries at or
// before the report time have no prediction error (age clamps at 0);
// an unbounded predictor yields +Inf, which callers should treat as
// "no bound known" rather than record.
func EffectiveUncertainty(pred Predictor, rep Report, t float64) float64 {
	age := t - rep.T
	if age <= 0 {
		return 0
	}
	return pred.DisplacementBound(rep) * age
}
