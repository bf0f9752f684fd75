package core

import (
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// walkCap bounds the number of link transitions a single walk may take
// since its report, guarding against degenerate near-zero-length-link
// cycles. A real prediction 10000 links past its report is absurdly
// stale anyway; once the cap is hit the walk pins at the entry of the
// link it reached, for every later query time.
const walkCap = 10000

// mapWalk is the memoized state of a road-graph walk from a report: the
// directed link the walk is currently on, the offset at which it entered
// that link (travel direction), and the budget — arc length for
// MapPredictor, time for SpeedCappedMapPredictor — consumed before that
// entry.
//
// The crucial property is that (cur, entryOff, consumed) depend only on
// the report and the graph, never on the query time: a query only
// decides how far past the entry of cur the result lies (rem = total -
// consumed) or that the walk must advance further (rem > left, which is
// monotone in total). Advancing incrementally for growing totals
// therefore replays exactly the floating-point operations the stateless
// walk performs from scratch, so cursor and stateless predictions are
// bit-identical. Walks that end permanently — a dead end, a standing
// object, the transition cap — pin position and heading for all later
// totals.
type mapWalk struct {
	cur      roadmap.Dir
	entryOff float64
	consumed float64 // distance (advanceDist) or time (advanceTime) before entry
	steps    int     // link transitions taken since the report
	pinned   bool    // walk ended permanently for all larger totals
	pinPt    geo.Point
	pinHead  float64
}

// startWalk returns the walk state immediately after the report.
func startWalk(rep Report) mapWalk {
	return mapWalk{cur: rep.Link, entryOff: rep.Offset}
}

func (w *mapWalk) pin(pt geo.Point, h float64) {
	w.pinned, w.pinPt, w.pinHead = true, pt, h
}

// advanceDist advances the walk until total metres of arc length since
// the report are consumed and returns the position and travel heading
// there. total must not be smaller than on the previous call; callers
// restart the walk (startWalk) when time moves backwards.
func (w *mapWalk) advanceDist(g *roadmap.Graph, chooser roadmap.TurnChooser, total float64, scratch *[]roadmap.Dir) (geo.Point, float64) {
	if w.pinned {
		return w.pinPt, w.pinHead
	}
	for {
		link := g.Link(w.cur.Link)
		left := link.Length() - w.entryOff
		if rem := total - w.consumed; rem <= left {
			return link.PointAtDirected(w.entryOff+rem, w.cur.Forward)
		}
		if w.steps >= walkCap {
			w.pin(link.PointAtDirected(w.entryOff, w.cur.Forward))
			return w.pinPt, w.pinHead
		}
		w.consumed += left
		node := link.EndNode(w.cur.Forward)
		exitHeading := link.ExitHeading(w.cur.Forward)
		*scratch = g.OutgoingAppend((*scratch)[:0], node, w.cur)
		next := chooser.Choose(g, w.cur, exitHeading, *scratch)
		if !next.IsValid() {
			// Dead end: the object is assumed to wait at the intersection.
			w.pin(g.Node(node).Pt, exitHeading)
			return w.pinPt, w.pinHead
		}
		w.cur = next
		w.entryOff = 0
		w.steps++
	}
}

// advanceTime advances the walk until total seconds since the report are
// consumed, spending time on each link according to the predictor's
// assumed speed there, and returns the position and travel heading.
// The same monotone-total contract as advanceDist applies.
func (w *mapWalk) advanceTime(sp *SpeedCappedMapPredictor, repV, total float64, scratch *[]roadmap.Dir) (geo.Point, float64) {
	if w.pinned {
		return w.pinPt, w.pinHead
	}
	g := sp.G
	for {
		link := g.Link(w.cur.Link)
		v := sp.assumedSpeed(repV, link)
		if v <= 0 {
			// Standing still: the prediction stays at the entry offset.
			w.pin(link.PointAtDirected(w.entryOff, w.cur.Forward))
			return w.pinPt, w.pinHead
		}
		left := link.Length() - w.entryOff
		timeOnLink := left / v
		if rem := total - w.consumed; rem <= timeOnLink {
			return link.PointAtDirected(w.entryOff+rem*v, w.cur.Forward)
		}
		if w.steps >= walkCap {
			w.pin(link.PointAtDirected(w.entryOff, w.cur.Forward))
			return w.pinPt, w.pinHead
		}
		w.consumed += timeOnLink
		node := link.EndNode(w.cur.Forward)
		exitHeading := link.ExitHeading(w.cur.Forward)
		*scratch = g.OutgoingAppend((*scratch)[:0], node, w.cur)
		next := sp.Chooser.Choose(g, w.cur, exitHeading, *scratch)
		if !next.IsValid() {
			w.pin(g.Node(node).Pt, exitHeading)
			return w.pinPt, w.pinHead
		}
		w.cur = next
		w.entryOff = 0
		w.steps++
	}
}

// mapCursor memoizes a MapPredictor walk across queries. Monotone query
// times advance the walk incrementally in O(links crossed since the last
// query); a query before the previous one transparently restarts the
// walk from the report (the stateless path). Not safe for concurrent
// use; callers synchronize (core.Server wraps cursors in a mutex).
type mapCursor struct {
	mp        *MapPredictor
	rep       Report
	walk      mapWalk
	lastTotal float64
	scratch   []roadmap.Dir // turn alternatives, backed by buf until it outgrows it
	buf       [8]roadmap.Dir
}

// At implements Cursor.
func (c *mapCursor) At(t float64) geo.Point { p, _ := c.AtState(t); return p }

// Reset implements Cursor; the turn scratch is kept.
func (c *mapCursor) Reset(rep Report) {
	c.rep, c.walk, c.lastTotal = rep, startWalk(rep), math.Inf(-1)
}

// AtState implements Cursor.
func (c *mapCursor) AtState(t float64) (geo.Point, float64) {
	if !c.rep.Link.IsValid() {
		return (LinearPredictor{}).Predict(c.rep, t), c.rep.Heading
	}
	dt := t - c.rep.T
	if dt <= 0 {
		return c.rep.Pos, c.rep.Heading
	}
	total := c.rep.V * dt
	if total < c.lastTotal {
		// Backwards time: restart from the report.
		c.walk = startWalk(c.rep)
	}
	c.lastTotal = total
	return c.walk.advanceDist(c.mp.G, c.mp.Chooser, total, &c.scratch)
}

// speedCappedCursor memoizes a SpeedCappedMapPredictor walk; the budget
// is time rather than distance. Same contract as mapCursor.
type speedCappedCursor struct {
	sp        *SpeedCappedMapPredictor
	rep       Report
	walk      mapWalk
	lastTotal float64
	scratch   []roadmap.Dir // turn alternatives, backed by buf until it outgrows it
	buf       [8]roadmap.Dir
}

// At implements Cursor.
func (c *speedCappedCursor) At(t float64) geo.Point { p, _ := c.AtState(t); return p }

// Reset implements Cursor; the turn scratch is kept.
func (c *speedCappedCursor) Reset(rep Report) {
	c.rep, c.walk, c.lastTotal = rep, startWalk(rep), math.Inf(-1)
}

// AtState implements Cursor.
func (c *speedCappedCursor) AtState(t float64) (geo.Point, float64) {
	if !c.rep.Link.IsValid() {
		return (LinearPredictor{}).Predict(c.rep, t), c.rep.Heading
	}
	total := t - c.rep.T
	if total <= 0 {
		return c.rep.Pos, c.rep.Heading
	}
	if total < c.lastTotal {
		c.walk = startWalk(c.rep)
	}
	c.lastTotal = total
	return c.walk.advanceTime(c.sp, c.rep.V, total, &c.scratch)
}

// NewCursor implements Predictor.
func (mp *MapPredictor) NewCursor(rep Report) Cursor {
	c := &mapCursor{mp: mp}
	c.scratch = c.buf[:0]
	c.Reset(rep)
	return c
}

// NewCursor implements Predictor.
func (sp *SpeedCappedMapPredictor) NewCursor(rep Report) Cursor {
	c := &speedCappedCursor{sp: sp}
	c.scratch = c.buf[:0]
	c.Reset(rep)
	return c
}
