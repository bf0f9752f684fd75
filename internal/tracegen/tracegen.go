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
//
// DriveRoute derives everything that depends only on the route and the
// params once per call, in its route profile: the speed limit of every
// link by route offset, the signalised junctions, and the curve speed
// sqrt(LatAccel/|curvature|) of every curved vertex. The integration
// step then reads the profile through forward cursors, which is exact
// because the route offset never decreases (speed is clamped at zero).
// The emitted samples are bit-identical to the per-step searches the
// profile replaced; FuzzDriveRoute holds the two to that, and
// TestGenerateFleetGolden in internal/sim pins a fleet's traces.
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

// validate rejects params the integrator cannot run: a NaN or infinite
// field would otherwise end the drive early with a truncated trace.
func (p Params) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Dt", p.Dt}, {"SamplePer", p.SamplePer}, {"Accel", p.Accel},
		{"Decel", p.Decel}, {"LatAccel", p.LatAccel}, {"SpeedFactor", p.SpeedFactor},
		{"Lookahead", p.Lookahead}, {"StopRate", p.StopRate}, {"StopMin", p.StopMin},
		{"StopMax", p.StopMax}, {"SpeedJitter", p.SpeedJitter},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("tracegen: %s = %v, must be finite", f.name, f.v)
		}
	}
	if p.Dt <= 0 || p.SamplePer <= 0 {
		return fmt.Errorf("tracegen: Dt and SamplePer must be positive")
	}
	if p.SamplePer < p.Dt {
		return fmt.Errorf("tracegen: SamplePer must be >= Dt")
	}
	return nil
}

// DriveRoute simulates driving along route with the given dynamics and
// returns the ground-truth trace. Speed and heading in the samples are the
// true instantaneous values. Every Params field must be finite.
//
// The route profile (speed limits, signals and curve speeds by route
// offset) and the jitter coefficients are computed once per call. The
// offset s never decreases, so each per-step lookup resumes where the
// previous one stopped, and samples are placed with Route.PointAtHint.
// The output is bit-identical to searching everything afresh at every
// step (FuzzDriveRoute checks it against that reference).
func DriveRoute(g *roadmap.Graph, route *roadmap.Route, p Params, seed int64) (*DriveResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rp := buildRouteProfile(g, route, p)

	// Ornstein-Uhlenbeck coefficients of the speed jitter for one step
	// (45 s correlation time).
	jitA := math.Exp(-p.Dt / 45)
	jitB := math.Sqrt(1 - jitA*jitA)

	tr := &trace.Trace{}
	var (
		s, v      float64 // arc position on route, current speed
		t         float64
		stopUntil float64 = -1
		jitter    float64 // OU state for target speed jitter
		nextPoll  float64 // next sample emission time
		link      int     // route element of the last sample
	)
	total := route.Length()
	for s < total-0.5 {
		// --- target speed ---------------------------------------------
		target := rp.speedLimitAt(s) * p.SpeedFactor

		// Speed jitter: slowly varying multiplicative factor.
		if p.SpeedJitter > 0 {
			jitter = jitA*jitter + jitB*rng.NormFloat64()
			target *= max(0.3, 1+p.SpeedJitter*jitter)
		}

		// Curve limit ahead: brake early enough.
		if limit := rp.curveLimitAhead(s, p); limit < target {
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
			v = min(target, v+p.Accel*p.Dt)
		} else {
			v = max(target, v-p.Decel*p.Dt)
		}
		if v < 0 {
			v = 0
		}
		if math.IsNaN(v) {
			// Finite params can still multiply out to 0 × Inf (a zero
			// SpeedFactor under an overflowing jitter); stop rather than
			// emit a NaN sample and end the trace early.
			return nil, fmt.Errorf("tracegen: speed became NaN at t=%v s: params out of range", t)
		}
		s += v * p.Dt
		t += p.Dt

		// --- emit samples ----------------------------------------------
		if t >= nextPoll {
			pos, heading, at := route.PointAtHint(min(s, total), link)
			link = at
			tr.Samples = append(tr.Samples, trace.Sample{T: t, Pos: pos, V: v, Heading: heading})
			nextPoll += p.SamplePer
		}
		if t > 48*3600 {
			return nil, fmt.Errorf("tracegen: simulation exceeded 48 h without finishing the route")
		}
	}
	return &DriveResult{Trace: tr, Route: route}, nil
}

// routeProfile is what DriveRoute derives from the route and the params
// before it integrates, each table in increasing route offset, with a
// forward cursor per table: the first entry a lookup at the current
// offset can return. The cursors only advance, which is exact because
// the offsets DriveRoute looks up never decrease.
type routeProfile struct {
	limits  []segmentLimit // per-link speed limits keyed by route offset
	signals []signalPos
	curves  []curvePoint

	limitAt, signalAt, curveAt int
}

type segmentLimit struct {
	to    float64 // route offset where the link ends
	speed float64
}

type signalPos struct {
	offset float64
	node   roadmap.NodeID
}

// curvePoint is a vertex of the route polyline with curvature of at
// least 1e-6 /m; straighter vertices never limit the speed.
type curvePoint struct {
	offset float64 // route offset of the vertex
	vCurve float64 // sqrt(LatAccel / |curvature|)
}

func buildRouteProfile(g *roadmap.Graph, route *roadmap.Route, p Params) *routeProfile {
	rp := &routeProfile{}
	var (
		pl     geo.Polyline // the route's concatenated link shapes
		walked float64
	)
	for i := 0; i < route.Len(); i++ {
		d := route.At(i)
		l := g.Link(d.Link)
		shape := l.Shape
		if !d.Forward {
			shape = shape.Reversed()
		}
		start := 0
		if len(pl) > 0 {
			start = 1 // skip duplicated junction vertex
		}
		pl = append(pl, shape[start:]...)
		rp.limits = append(rp.limits, segmentLimit{to: walked + l.Length(), speed: l.Speed()})
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
	cum := pl.CumLengths()
	// The end vertices have no curvature.
	for i := 1; i < len(pl)-1; i++ {
		c := math.Abs(geo.CurvatureAt(pl, i))
		if c < 1e-6 {
			continue
		}
		rp.curves = append(rp.curves, curvePoint{offset: cum[i], vCurve: math.Sqrt(p.LatAccel / c)})
	}
	return rp
}

// speedLimitAt returns the speed limit of the link at route offset s (of
// the last link past the end).
func (rp *routeProfile) speedLimitAt(s float64) float64 {
	for rp.limitAt < len(rp.limits)-1 && rp.limits[rp.limitAt].to <= s {
		rp.limitAt++
	}
	return rp.limits[rp.limitAt].speed
}

// curveLimitAhead returns the speed allowed by the sharpest curve within
// the braking-relevant lookahead, accounting for the distance needed to
// slow down.
func (rp *routeProfile) curveLimitAhead(s float64, p Params) float64 {
	for rp.curveAt < len(rp.curves) && rp.curves[rp.curveAt].offset < s {
		rp.curveAt++
	}
	limit := math.Inf(1)
	for _, cp := range rp.curves[rp.curveAt:] {
		if cp.offset > s+p.Lookahead {
			break
		}
		d := cp.offset - s
		// Speed allowed now so that braking at Decel reaches vCurve in d.
		vAllowed := math.Sqrt(cp.vCurve*cp.vCurve + 2*p.Decel*max(0, d))
		if vAllowed < limit {
			limit = vAllowed
		}
	}
	return limit
}

// nextSignal returns the first signalised node at route offset > s within
// the lookahead.
func (rp *routeProfile) nextSignal(s, lookahead float64) (float64, roadmap.NodeID, bool) {
	for rp.signalAt < len(rp.signals) && rp.signals[rp.signalAt].offset <= s {
		rp.signalAt++
	}
	if rp.signalAt < len(rp.signals) {
		if sig := rp.signals[rp.signalAt]; sig.offset <= s+lookahead {
			return sig.offset, sig.node, true
		}
	}
	return 0, 0, false
}
