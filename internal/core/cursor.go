package core

import (
	"math"

	"mapdr/internal/geo"
)

// Cursor is a stateful view of one (predictor, report) pair that answers
// repeated prediction queries incrementally; every Predictor mints one
// (Predictor.NewCursor). For the map-based predictor family a cursor
// memoizes the road-graph walk (current directed link, entry offset,
// consumed budget), so a query at a later time advances in O(links
// crossed since the previous query) instead of re-walking from the
// report — the difference between O(1) and O(time-since-report) per
// deviation check during the protocol's long quiet periods.
//
// For every (rep, t), At returns the bit-identical position
// Predictor.Predict(rep, t) returns. Queries at non-monotone times
// transparently restart the walk from the report, so correctness never
// depends on call order. A cursor is bound to one report at a time;
// Reset re-aims it at a new report, keeping the buffers it owns, and
// answers as a cursor newly minted for that report would (core.Server
// and core.Source re-aim theirs on every report they apply or send, so
// the per-sample path allocates nothing).
//
// Cursors are not safe for concurrent use. core.Server guards its cached
// cursor with a mutex so location-service query fan-outs can share it.
type Cursor interface {
	// At returns the predicted position at time t, bit-identical to the
	// bound predictor's Predict over the bound report.
	At(t float64) geo.Point
	// AtState returns the predicted position and travel heading at time
	// t in a single advance. At and before the report time the reported
	// heading is returned.
	AtState(t float64) (geo.Point, float64)
	// Reset binds the cursor to rep, restarting its walk there. Every
	// later answer is the one p.NewCursor(rep) would give.
	Reset(rep Report)
}

// cursorPays reports whether caching a cursor for p beats calling
// Predict directly. The closed-form predictors (static, linear, CTRV)
// answer any t in O(1) already, so the cursor indirection would only add
// overhead to hot query paths; every other predictor gains from the
// memoized state.
func cursorPays(p Predictor) bool {
	switch p.(type) {
	case StaticPredictor, LinearPredictor, CTRVPredictor:
		return false
	}
	return true
}

// staticCursor is the cursor of StaticPredictor.
type staticCursor struct{ rep Report }

// At implements Cursor.
func (c *staticCursor) At(t float64) geo.Point { return StaticPredictor{}.Predict(c.rep, t) }

// AtState implements Cursor.
func (c *staticCursor) AtState(t float64) (geo.Point, float64) { return c.rep.Pos, c.rep.Heading }

// Reset implements Cursor.
func (c *staticCursor) Reset(rep Report) { c.rep = rep }

// NewCursor implements Predictor.
func (StaticPredictor) NewCursor(rep Report) Cursor { return &staticCursor{rep: rep} }

// linearCursor is the cursor of LinearPredictor. Linear extrapolation is
// closed-form, so the cursor holds no walk state; the heading is the
// reported heading (movement is a straight ray).
type linearCursor struct{ rep Report }

// At implements Cursor.
func (c *linearCursor) At(t float64) geo.Point { return LinearPredictor{}.Predict(c.rep, t) }

// AtState implements Cursor.
func (c *linearCursor) AtState(t float64) (geo.Point, float64) {
	return LinearPredictor{}.Predict(c.rep, t), c.rep.Heading
}

// Reset implements Cursor.
func (c *linearCursor) Reset(rep Report) { c.rep = rep }

// NewCursor implements Predictor.
func (LinearPredictor) NewCursor(rep Report) Cursor { return &linearCursor{rep: rep} }

// ctrvCursor is the cursor of CTRVPredictor: closed-form arc, with the
// heading advanced by the turn rate (the arc tangent).
type ctrvCursor struct{ rep Report }

// At implements Cursor.
func (c *ctrvCursor) At(t float64) geo.Point { return CTRVPredictor{}.Predict(c.rep, t) }

// AtState implements Cursor.
func (c *ctrvCursor) AtState(t float64) (geo.Point, float64) {
	pos := CTRVPredictor{}.Predict(c.rep, t)
	dt := t - c.rep.T
	if dt <= 0 || math.Abs(c.rep.Omega) < minTurnRate {
		return pos, c.rep.Heading
	}
	return pos, geo.NormalizeAngle(c.rep.Heading + c.rep.Omega*dt)
}

// Reset implements Cursor.
func (c *ctrvCursor) Reset(rep Report) { c.rep = rep }

// NewCursor implements Predictor.
func (CTRVPredictor) NewCursor(rep Report) Cursor { return &ctrvCursor{rep: rep} }

// routeCursor memoizes the route-link index of a RoutePredictor, turning
// the per-query binary search into an amortised O(1) neighbour scan. The
// hinted lookup is exact for any query order, so no restart logic is
// needed.
type routeCursor struct {
	rp   *RoutePredictor
	rep  Report
	hint int
}

// At implements Cursor.
func (c *routeCursor) At(t float64) geo.Point { p, _ := c.AtState(t); return p }

// AtState implements Cursor.
func (c *routeCursor) AtState(t float64) (geo.Point, float64) {
	dt := t - c.rep.T
	if dt < 0 {
		dt = 0
	}
	p, h, hint := c.rp.Route.PointAtHint(c.rep.RouteOffset+c.rep.V*dt, c.hint)
	c.hint = hint
	return p, h
}

// Reset implements Cursor. The link hint survives: the hinted lookup is
// exact from any hint, and the new report is usually near the old one.
func (c *routeCursor) Reset(rep Report) { c.rep = rep }

// NewCursor implements Predictor.
func (rp *RoutePredictor) NewCursor(rep Report) Cursor { return &routeCursor{rp: rp, rep: rep} }
