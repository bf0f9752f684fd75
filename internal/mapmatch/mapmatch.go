// Package mapmatch implements the map-matching algorithm of the map-based
// dead-reckoning protocol (paper §3): positions are matched to a current
// link within a threshold u_m, corrected perpendicularly onto the link,
// and link transitions are resolved by forward-tracking at intersections
// and back-tracking after a wrong link choice. When no link matches, the
// matcher reports Lost and periodically attempts re-acquisition through
// the spatial index.
package mapmatch

import (
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/spatial"
)

// Event classifies what happened on one matcher update.
type Event uint8

// Matcher events.
const (
	EventNone       Event = iota
	EventInit             // first successful match
	EventKeep             // still on the current link
	EventForward          // transitioned via forward-tracking at an intersection
	EventBacktrack        // corrected a wrong link choice via back-tracking
	EventLost             // no link matches; caller should fall back to linear
	EventReacquired       // matched again after being lost
	EventSearching        // still lost, no re-acquisition attempt due yet
)

// Config parameterises the matcher.
type Config struct {
	// MatchRadius is u_m: the maximum distance between a position and a
	// link for the position to be matched to it. It reflects the accuracy
	// of the positioning sensor (paper §3).
	MatchRadius float64
	// ReacquireEvery is the period in seconds between re-acquisition
	// attempts while lost ("the source periodically compares the object's
	// position with suitable links of the map", paper §3).
	ReacquireEvery float64
	// BacktrackDepth is how many intersections back-tracking may walk
	// back ("it goes back to the last intersection(s)", paper §3).
	BacktrackDepth int
}

// DefaultConfig returns the configuration used in the experiments:
// u_m of 25 m (DGPS error plus map geometry error), 5 s re-acquisition.
func DefaultConfig() Config {
	return Config{MatchRadius: 25, ReacquireEvery: 5, BacktrackDepth: 2}
}

// Result is the outcome of one Feed call.
type Result struct {
	Matched   bool
	Dir       roadmap.Dir // current directed link when matched
	Offset    float64     // offset along the travel direction, metres
	Corrected geo.Point   // position projected onto the link (p_c)
	Dist      float64     // distance from the raw position to the link
	Event     Event
}

// Matcher tracks the current link of one mobile object. It is not safe
// for concurrent use.
type Matcher struct {
	g   *roadmap.Graph
	cfg Config

	matched     bool
	cur         roadmap.Dir
	lastCanon   float64 // canonical (From->To) offset of the last match
	progRef     float64 // trailing extremum of the canonical offset
	history     []roadmap.NodeID
	lastAttempt float64
	everMatched bool

	// Scratch the matcher owns and reuses on every Feed, so matching a
	// sample allocates nothing once the buffers have grown: candidate
	// links at intersections, the nodes back-tracking revisits, and the
	// spatial index's working memory for acquisition.
	alts  []roadmap.Dir
	nodes []roadmap.NodeID
	near  spatial.NearestScratch
}

// dirHysteresis is the canonical-offset regression (metres) past the
// trailing extremum needed to flip the inferred direction of travel.
// Sensor noise makes the projected offset jitter by a few metres; at
// walking speed a naive sample-to-sample comparison flips direction
// constantly, which would make the map predictor walk the wrong way.
const dirHysteresis = 6.0

// New returns a Matcher over the given network.
func New(g *roadmap.Graph, cfg Config) *Matcher {
	if cfg.MatchRadius <= 0 {
		panic("mapmatch: MatchRadius must be positive")
	}
	if cfg.ReacquireEvery <= 0 {
		cfg.ReacquireEvery = 5
	}
	if cfg.BacktrackDepth <= 0 {
		cfg.BacktrackDepth = 1
	}
	return &Matcher{
		g: g, cfg: cfg, lastAttempt: math.Inf(-1),
		history: make([]roadmap.NodeID, 0, cfg.BacktrackDepth),
		alts:    make([]roadmap.Dir, 0, 8),
	}
}

// Matched reports whether the matcher currently has a link.
func (m *Matcher) Matched() bool { return m.matched }

// Current returns the current directed link (valid only when Matched).
func (m *Matcher) Current() roadmap.Dir { return m.cur }

// Reset clears all matcher state.
func (m *Matcher) Reset() {
	m.matched = false
	m.cur = roadmap.NoDir
	m.history = m.history[:0]
	m.lastAttempt = math.Inf(-1)
	m.everMatched = false
}

// Feed advances the matcher with a sensor position at time t. heading is
// the estimated travel heading in radians (NaN when unknown); it is used
// to orient the direction of travel on a freshly acquired link.
func (m *Matcher) Feed(t float64, p geo.Point, heading float64) Result {
	if !m.matched {
		return m.tryAcquire(t, p, heading)
	}

	link := m.g.Link(m.cur.Link)
	proj := link.Project(p)
	if proj.Dist <= m.cfg.MatchRadius {
		// Still within u_m of the current link — but if the position fits
		// a neighbouring link much better, the earlier link choice was
		// wrong: correct it now instead of waiting to exceed u_m (the
		// burst of spurious updates this prevents is exactly the "wrong
		// matching" cost the paper attributes to its simple matcher, §5).
		if proj.Dist > m.cfg.MatchRadius/3 {
			if r, ok := m.switchToBetter(p, proj.Dist); ok {
				return r
			}
		}
		// Refine the direction of travel from offset progress.
		m.updateDirection(proj.Offset)
		m.lastCanon = proj.Offset
		return m.result(proj, EventKeep)
	}

	// The object can no longer be matched to its current link: decide
	// between forward-tracking (passed the travel-end intersection) and
	// back-tracking (wrong link chosen earlier).
	passedEnd := m.nearTravelEnd()
	if passedEnd {
		if r, ok := m.forwardTrack(p); ok {
			return r
		}
		if r, ok := m.backTrack(p); ok {
			return r
		}
	} else {
		if r, ok := m.backTrack(p); ok {
			return r
		}
		if r, ok := m.forwardTrack(p); ok {
			return r
		}
	}

	// Neither worked: lost. The caller sends an update with an empty link
	// and falls back to linear prediction.
	m.matched = false
	m.cur = roadmap.NoDir
	m.history = m.history[:0]
	m.lastAttempt = t
	return Result{Event: EventLost}
}

// nearTravelEnd reports whether the last matched position was in the
// leading part of the link relative to the travel direction, suggesting
// the object passed the end intersection.
func (m *Matcher) nearTravelEnd() bool {
	link := m.g.Link(m.cur.Link)
	directed := link.DirectedOffset(m.lastCanon, m.cur.Forward)
	// The canonical offset converted to travel direction: high values mean
	// the object was approaching the travel end.
	return directed >= link.Length()/2
}

// tryAcquire attempts a fresh match through the spatial index, rate
// limited to one attempt per ReacquireEvery seconds.
func (m *Matcher) tryAcquire(t float64, p geo.Point, heading float64) Result {
	if t-m.lastAttempt < m.cfg.ReacquireEvery && !math.IsInf(m.lastAttempt, -1) {
		return Result{Event: EventSearching}
	}
	m.lastAttempt = t
	match, ok := m.g.NearestLinkWith(p, m.cfg.MatchRadius, &m.near)
	if !ok {
		return Result{Event: EventSearching}
	}
	m.matched = true
	m.cur = roadmap.Dir{Link: match.Link, Forward: m.directionFromHeading(match, heading)}
	m.lastCanon = match.Proj.Offset
	m.progRef = match.Proj.Offset
	m.history = m.history[:0]
	ev := EventInit
	if m.everMatched {
		ev = EventReacquired
	}
	m.everMatched = true
	return m.result(match.Proj, ev)
}

// directionFromHeading picks the travel direction on a newly acquired link
// whose local tangent best aligns with the estimated heading. Defaults to
// forward when the heading is unknown.
func (m *Matcher) directionFromHeading(match roadmap.LinkMatch, heading float64) bool {
	if math.IsNaN(heading) {
		return true
	}
	link := m.g.Link(match.Link)
	_, tangent := link.PointAt(match.Proj.Offset)
	return geo.AbsAngleDiff(heading, tangent) <= math.Pi/2
}

// updateDirection flips the travel direction when the canonical offset
// regresses past the trailing extremum by more than the hysteresis (the
// object is in fact moving To->From).
func (m *Matcher) updateDirection(canon float64) {
	if m.cur.Forward {
		if canon > m.progRef {
			m.progRef = canon
		} else if canon < m.progRef-dirHysteresis {
			m.cur.Forward = false
			m.progRef = canon
		}
	} else {
		if canon < m.progRef {
			m.progRef = canon
		} else if canon > m.progRef+dirHysteresis {
			m.cur.Forward = true
			m.progRef = canon
		}
	}
}

// switchToBetter looks for an outgoing link at either end node of the
// current link that fits the position at most half as far away as the
// current link does, and transitions to it. Returns ok=false when no
// alternative is clearly better.
func (m *Matcher) switchToBetter(p geo.Point, curDist float64) (Result, bool) {
	endNode := m.g.Link(m.cur.Link).EndNode(m.cur.Forward)
	startNode := m.g.Link(m.cur.Link).StartNode(m.cur.Forward)
	m.alts = m.g.OutgoingAppend(m.alts[:0], endNode, m.cur)
	m.alts = m.g.OutgoingAppend(m.alts, startNode, m.cur)
	best, proj, ok := m.nearestAlt(p, m.alts)
	if !ok || proj.Dist > curDist/2 {
		return Result{}, false
	}
	ev := EventBacktrack
	if m.g.Link(best.Link).StartNode(best.Forward) == endNode {
		ev = EventForward
		m.pushHistory(endNode)
	} else {
		m.history = m.history[:0]
		m.pushHistory(startNode)
	}
	m.cur = best
	m.lastCanon = proj.Offset
	m.progRef = proj.Offset
	return m.result(proj, ev), true
}

// forwardTrack resolves the transition at the travel-end intersection:
// among the outgoing links of that intersection, the nearest one within
// u_m becomes the new current link (paper §3).
func (m *Matcher) forwardTrack(p geo.Point) (Result, bool) {
	node := m.g.Link(m.cur.Link).EndNode(m.cur.Forward)
	m.alts = m.g.OutgoingAppend(m.alts[:0], node, m.cur)
	if len(m.alts) == 0 {
		// Dead end: the only possibility is a U-turn onto the same link.
		if m.g.Link(m.cur.Link).OneWay {
			return Result{}, false
		}
		m.alts = append(m.alts, roadmap.Dir{Link: m.cur.Link, Forward: !m.cur.Forward})
	}
	best, proj, ok := m.nearestAlt(p, m.alts)
	if !ok {
		return Result{}, false
	}
	m.pushHistory(node)
	m.cur = best
	m.lastCanon = proj.Offset
	m.progRef = proj.Offset
	return m.result(proj, EventForward), true
}

// backTrack revisits the last intersections passed and re-examines their
// other outgoing links ("the source assumes that it has previously
// selected the wrong link and tries to correct this", paper §3).
func (m *Matcher) backTrack(p geo.Point) (Result, bool) {
	// The most recent intersection is the start of the current travel.
	m.nodes = append(m.nodes[:0], m.g.Link(m.cur.Link).StartNode(m.cur.Forward))
	for i := len(m.history) - 1; i >= 0 && len(m.nodes) < m.cfg.BacktrackDepth; i-- {
		m.nodes = append(m.nodes, m.history[i])
	}
	for _, node := range m.nodes {
		m.alts = m.g.OutgoingAppend(m.alts[:0], node, m.cur)
		best, proj, ok := m.nearestAlt(p, m.alts)
		if !ok {
			continue
		}
		m.cur = best
		m.lastCanon = proj.Offset
		m.progRef = proj.Offset
		m.history = m.history[:0]
		m.pushHistory(node)
		return m.result(proj, EventBacktrack), true
	}
	return Result{}, false
}

// nearestAlt returns the alternative whose geometry is nearest to p within
// the match radius.
func (m *Matcher) nearestAlt(p geo.Point, alts []roadmap.Dir) (roadmap.Dir, geo.PolylineProjection, bool) {
	best := roadmap.NoDir
	var bestProj geo.PolylineProjection
	bestDist := math.Inf(1)
	for _, alt := range alts {
		proj := m.g.Link(alt.Link).Project(p)
		if proj.Dist <= m.cfg.MatchRadius && proj.Dist < bestDist {
			best, bestProj, bestDist = alt, proj, proj.Dist
		}
	}
	return best, bestProj, best.IsValid()
}

// pushHistory records an intersection passed, keeping the last
// BacktrackDepth of them; a full window shifts in place.
func (m *Matcher) pushHistory(node roadmap.NodeID) {
	if n := len(m.history); n >= m.cfg.BacktrackDepth {
		copy(m.history, m.history[1:])
		m.history[n-1] = node
		return
	}
	m.history = append(m.history, node)
}

// result assembles a matched Result from a canonical projection.
func (m *Matcher) result(proj geo.PolylineProjection, ev Event) Result {
	link := m.g.Link(m.cur.Link)
	return Result{
		Matched:   true,
		Dir:       m.cur,
		Offset:    link.DirectedOffset(proj.Offset, m.cur.Forward),
		Corrected: proj.Point,
		Dist:      proj.Dist,
		Event:     ev,
	}
}
