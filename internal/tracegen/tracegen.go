// Package tracegen simulates the movement of mobile objects over a road
// network and produces ground-truth GPS traces at a fixed sampling rate.
// It replaces the real DGPS recordings used in the paper (Table 1) with
// kinematically plausible synthetic equivalents (the generators row of
// the README's "Architecture: paper → packages" table).
//
// The generator is split into route selection (Wander, or a pre-computed
// Route for through-corridors) and longitudinal dynamics (DriveRoute):
// acceleration limits, curve speed limits from geometry lookahead,
// traffic-signal stops and random stop-and-go congestion events.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// Params are the longitudinal dynamics parameters of a simulated mover.
type Params struct {
	Dt          float64 // integration time step, s
	SamplePer   float64 // sensor sampling period, s (paper: 1 s)
	Accel       float64 // max acceleration, m/s^2
	Decel       float64 // comfortable braking, m/s^2
	LatAccel    float64 // comfortable lateral acceleration in curves, m/s^2
	SpeedFactor float64 // driver factor applied to speed limits
	Lookahead   float64 // curve/signal lookahead distance, m
	StopRate    float64 // Poisson rate of random stop events, 1/s
	StopMin     float64 // min stop duration, s
	StopMax     float64 // max stop duration, s
	SpeedJitter float64 // relative OU jitter on target speed (0..1)
}

// CarParams returns dynamics for a passenger car.
func CarParams() Params {
	return Params{
		Dt:          0.5,
		SamplePer:   1.0,
		Accel:       1.8,
		Decel:       2.5,
		LatAccel:    2.2,
		SpeedFactor: 1.0,
		Lookahead:   250,
		StopRate:    0,
		StopMin:     5,
		StopMax:     25,
		SpeedJitter: 0.05,
	}
}

// CityCarParams returns car dynamics with stop-and-go congestion, matching
// the paper's city trace (34 km/h average over 65 km/h limits).
func CityCarParams() Params {
	p := CarParams()
	p.StopRate = 1.0 / 180 // a random stop every ~3 minutes on top of signals
	p.SpeedJitter = 0.12
	return p
}

// PedestrianParams returns dynamics for a walking person (paper: 4.6 km/h
// average, 7.2 km/h max, frequent pauses).
func PedestrianParams() Params {
	return Params{
		Dt:          0.5,
		SamplePer:   1.0,
		Accel:       0.8,
		Decel:       1.0,
		LatAccel:    10, // effectively no curve limit on foot
		SpeedFactor: 0.72,
		Lookahead:   15,
		StopRate:    1.0 / 240,
		StopMin:     10,
		StopMax:     60,
		SpeedJitter: 0.25,
	}
}

// signal timing constants; phases are derived from node ids so the pattern
// is deterministic yet uncorrelated between intersections.
const (
	signalCycle = 60.0
	signalRed   = 27.0
)

// signalIsRed reports whether a traffic light shows red at time t.
func signalIsRed(node roadmap.NodeID, t float64) bool {
	phase := float64((int(node)*37 + 11) % int(signalCycle))
	return math.Mod(t+phase, signalCycle) < signalRed
}

// DriveResult is the output of DriveRoute.
type DriveResult struct {
	Trace *trace.Trace   // ground-truth samples at Params.SamplePer
	Route *roadmap.Route // the route driven (for the known-route baseline)
}

// DriveRoute simulates driving along route with the given dynamics and
// returns the ground-truth trace. Speed and heading in the samples are the
// true instantaneous values.
func DriveRoute(g *roadmap.Graph, route *roadmap.Route, p Params, seed int64) (*DriveResult, error) {
	if p.Dt <= 0 || p.SamplePer <= 0 {
		return nil, fmt.Errorf("tracegen: Dt and SamplePer must be positive")
	}
	if p.SamplePer < p.Dt {
		return nil, fmt.Errorf("tracegen: SamplePer must be >= Dt")
	}
	rng := rand.New(rand.NewSource(seed))

	// Precompute route geometry: concatenated polyline with cumulative
	// lengths for curvature lookahead, per-offset speed limits and signal
	// positions.
	rp := buildRouteProfile(g, route)

	tr := &trace.Trace{}
	var (
		s, v      float64 // arc position on route, current speed
		t         float64
		stopUntil float64 = -1
		jitter    float64 // OU state for target speed jitter
		nextPoll  float64 // next sample emission time
	)
	total := route.Length()
	for s < total-0.5 {
		// --- target speed ---------------------------------------------
		target := rp.speedLimitAt(s) * p.SpeedFactor

		// Speed jitter: slowly varying multiplicative factor.
		if p.SpeedJitter > 0 {
			a := math.Exp(-p.Dt / 45)
			jitter = a*jitter + math.Sqrt(1-a*a)*rng.NormFloat64()
			target *= math.Max(0.3, 1+p.SpeedJitter*jitter)
		}

		// Curve limit ahead: brake early enough.
		if limit := rp.curveLimitAhead(s, v, p); limit < target {
			target = limit
		}

		// Random stop-and-go events.
		if stopUntil < t && p.StopRate > 0 && rng.Float64() < p.StopRate*p.Dt {
			stopUntil = t + p.StopMin + rng.Float64()*(p.StopMax-p.StopMin)
		}
		if t < stopUntil {
			target = 0
		}

		// Traffic signals: stop at a red light within braking reach. The
		// stop margin keeps the discrete integrator from overshooting the
		// stop line and "running" the light.
		const stopMargin = 6.0
		if sigOff, sigNode, ok := rp.nextSignal(s, p.Lookahead); ok {
			d := sigOff - s
			if signalIsRed(sigNode, t) {
				brakeDist := v*v/(2*p.Decel) + 2*stopMargin
				if d < brakeDist {
					if d <= stopMargin {
						target = 0
					} else {
						stopSpeed := math.Sqrt(2 * p.Decel * (d - stopMargin))
						if stopSpeed < target {
							target = stopSpeed
						}
					}
				}
			}
		}

		// --- integrate -------------------------------------------------
		if v < target {
			v = math.Min(target, v+p.Accel*p.Dt)
		} else {
			v = math.Max(target, v-p.Decel*p.Dt)
		}
		if v < 0 {
			v = 0
		}
		s += v * p.Dt
		t += p.Dt

		// --- emit samples ----------------------------------------------
		if t >= nextPoll {
			pos, heading := route.PointAt(math.Min(s, total))
			tr.Samples = append(tr.Samples, trace.Sample{T: t, Pos: pos, V: v, Heading: heading})
			nextPoll += p.SamplePer
		}
		if t > 48*3600 {
			return nil, fmt.Errorf("tracegen: simulation exceeded 48 h without finishing the route")
		}
	}
	return &DriveResult{Trace: tr, Route: route}, nil
}

// routeProfile caches geometry-derived data along a route.
type routeProfile struct {
	pl      geo.Polyline
	cum     []float64
	limits  []segmentLimit // per-link speed limits keyed by route offset
	signals []signalPos
}

type segmentLimit struct {
	from, to float64
	speed    float64
}

type signalPos struct {
	offset float64
	node   roadmap.NodeID
}

func buildRouteProfile(g *roadmap.Graph, route *roadmap.Route) *routeProfile {
	rp := &routeProfile{}
	var walked float64
	for i := 0; i < route.Len(); i++ {
		d := route.At(i)
		l := g.Link(d.Link)
		shape := l.Shape
		if !d.Forward {
			shape = shape.Reversed()
		}
		start := 0
		if len(rp.pl) > 0 {
			start = 1 // skip duplicated junction vertex
		}
		rp.pl = append(rp.pl, shape[start:]...)
		rp.limits = append(rp.limits, segmentLimit{from: walked, to: walked + l.Length(), speed: l.Speed()})
		walked += l.Length()
		// Signal at the node this link leads to (except the final node:
		// the mover stops there anyway).
		if i < route.Len()-1 {
			end := l.EndNode(d.Forward)
			if g.Node(end).Signal {
				rp.signals = append(rp.signals, signalPos{offset: walked, node: end})
			}
		}
	}
	rp.cum = rp.pl.CumLengths()
	return rp
}

func (rp *routeProfile) speedLimitAt(s float64) float64 {
	// Linear scan with memoryless binary search; limits lists are short
	// relative to simulation steps, so binary search each call.
	lo, hi := 0, len(rp.limits)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rp.limits[mid].to <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return rp.limits[lo].speed
}

// curveLimitAhead returns the speed allowed by the sharpest curve within
// the braking-relevant lookahead, accounting for the distance needed to
// slow down.
func (rp *routeProfile) curveLimitAhead(s, v float64, p Params) float64 {
	limit := math.Inf(1)
	// Find the first vertex index at or beyond s.
	lo, hi := 0, len(rp.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rp.cum[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(rp.pl)-1 && rp.cum[i] <= s+p.Lookahead; i++ {
		c := math.Abs(geo.CurvatureAt(rp.pl, i))
		if c < 1e-6 {
			continue
		}
		vCurve := math.Sqrt(p.LatAccel / c)
		d := rp.cum[i] - s
		// Speed allowed now so that braking at Decel reaches vCurve in d.
		vAllowed := math.Sqrt(vCurve*vCurve + 2*p.Decel*math.Max(0, d))
		if vAllowed < limit {
			limit = vAllowed
		}
	}
	return limit
}

// nextSignal returns the first signalised node at route offset > s within
// the lookahead.
func (rp *routeProfile) nextSignal(s, lookahead float64) (float64, roadmap.NodeID, bool) {
	for _, sig := range rp.signals {
		if sig.offset > s && sig.offset <= s+lookahead {
			return sig.offset, sig.node, true
		}
		if sig.offset > s+lookahead {
			break
		}
	}
	return 0, 0, false
}
