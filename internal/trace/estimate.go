package trace

import "mapdr/internal/geo"

// Estimator derives speed and heading from the last n position sightings,
// as the protocols require when the sensor only reports positions
// ("if speed and direction are not directly available, they can be
// inferred from the last n position sightings", paper §2 footnote; §4
// uses n=2 for freeway, 4 for city/inter-urban, 8 for walking).
type Estimator struct {
	n    int
	ring []Sample // the last min(n, added) sightings, oldest first; capacity n
}

// NewEstimator returns an estimator over the last n sightings (n >= 2).
func NewEstimator(n int) *Estimator {
	if n < 2 {
		panic("trace: estimator needs n >= 2")
	}
	return &Estimator{n: n, ring: make([]Sample, 0, n)}
}

// Add records a sighting and returns the current speed (m/s) and heading
// (radians) estimate. With fewer than 2 sightings the estimate is
// (0, 0, false).
//
// A full window shifts in place, so Add allocates nothing.
func (e *Estimator) Add(s Sample) (v, heading float64, ok bool) {
	if len(e.ring) == e.n {
		copy(e.ring, e.ring[1:])
		e.ring[e.n-1] = s
	} else {
		e.ring = append(e.ring, s)
	}
	return e.Current()
}

// Current returns the estimate from the buffered sightings: the mean
// velocity vector between the oldest and newest sighting. Averaging over
// the window suppresses sensor noise at the cost of lag — exactly the
// trade-off that makes the optimal n depend on speed (paper §4).
func (e *Estimator) Current() (v, heading float64, ok bool) {
	if len(e.ring) < 2 {
		return 0, 0, false
	}
	first, last := e.ring[0], e.ring[len(e.ring)-1]
	dt := last.T - first.T
	if dt <= 0 {
		return 0, 0, false
	}
	d := last.Pos.Sub(first.Pos)
	return d.Norm() / dt, d.Heading(), true
}

// TurnRate estimates the rate of heading change (rad/s) by splitting the
// sighting window in half and differencing the half-window headings. Used
// by the higher-order (CTRV) prediction variant of paper §2. ok is false
// with fewer than 3 sightings.
func (e *Estimator) TurnRate() (omega float64, ok bool) {
	n := len(e.ring)
	if n < 3 {
		return 0, false
	}
	mid := n / 2
	a, m, b := e.ring[0], e.ring[mid], e.ring[n-1]
	d1 := m.Pos.Sub(a.Pos)
	d2 := b.Pos.Sub(m.Pos)
	if d1.Norm() < 1e-9 || d2.Norm() < 1e-9 {
		return 0, false
	}
	dt := (b.T - a.T) / 2
	if dt <= 0 {
		return 0, false
	}
	return geo.AngleDiff(d1.Heading(), d2.Heading()) / dt, true
}
