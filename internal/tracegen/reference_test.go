package tracegen

// The reference generator: DriveRoute and Wander as they were before
// DriveRoute precomputed its route profile, kept verbatim so the fuzz
// and equivalence tests can demand bit-identical output from the
// optimised code.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// fuzzMaps caches FuzzDriveRoute's road networks by map number.
var fuzzMaps sync.Map // int64 -> *roadmap.Graph

// fuzzMap returns one of 24 small road networks: a city grid with
// signals and straight links, a footpath web with diagonals, or a
// curved freeway with shape points and ramps, by m mod 3.
func fuzzMap(t *testing.T, m int64) *roadmap.Graph {
	m = (m%24 + 24) % 24
	if g, ok := fuzzMaps.Load(m); ok {
		return g.(*roadmap.Graph)
	}
	var (
		cor *mapgen.Corridor
		err error
	)
	switch m % 3 {
	case 0:
		cor, err = mapgen.CityGrid(mapgen.CityConfig{
			Seed: m, Rows: 12, Cols: 12, Spacing: 250, Jitter: 30,
			SignalProb: 0.45, DropProb: 0.08, AvenueEach: 5,
		})
	case 1:
		cor, err = mapgen.FootpathWeb(mapgen.FootpathConfig{
			Seed: m, Rows: 12, Cols: 12, Spacing: 60, Jitter: 10, DiagProb: 0.3, DropProb: 0.1,
		})
	default:
		cfg := mapgen.DefaultFreewayConfig(m)
		cfg.LengthKm = 12
		cor, err = mapgen.Freeway(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	fuzzMaps.Store(m, cor.Graph)
	return cor.Graph
}

// FuzzDriveRoute drives a wandered route with DriveRoute and with the
// reference generator and requires the same route and bit-identical
// samples (or an error from both). The inputs pick the map, the start
// node, the route length, the dynamics preset, scale factors on its
// Lookahead, LatAccel and Decel, and the seed.
func FuzzDriveRoute(f *testing.F) {
	f.Add(int64(0), uint16(0), 6000.0, uint8(1), 1.0, 1.0, 1.0, int64(1))
	f.Add(int64(1), uint16(40), 2000.0, uint8(2), 1.0, 1.0, 1.0, int64(2))
	f.Add(int64(2), uint16(3), 9000.0, uint8(0), 1.0, 1.0, 1.0, int64(3))
	f.Add(int64(3), uint16(77), 5000.0, uint8(0), 4.0, 0.2, 0.5, int64(4))
	f.Add(int64(5), uint16(9), 3000.0, uint8(1), 0.0, 3.0, 2.0, int64(5))
	f.Add(int64(8), uint16(12), 8000.0, uint8(1), 0.1, -1.0, 0.25, int64(6))
	f.Fuzz(func(t *testing.T, mapNo int64, start uint16, routeLen float64, preset uint8,
		lookScale, latScale, decelScale float64, seed int64) {
		for _, x := range []float64{routeLen, lookScale, latScale, decelScale} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite input")
			}
		}
		g := fuzzMap(t, mapNo)
		from := roadmap.NodeID(int(start) % g.NumNodes())
		routeLen = math.Mod(math.Abs(routeLen), 20000)
		var p Params
		switch preset % 3 {
		case 0:
			p = CarParams()
		case 1:
			p = CityCarParams()
		default:
			p = PedestrianParams()
		}
		// Scales in (-20, 20): negative ones invert a limit.
		p.Lookahead *= math.Mod(lookScale, 20)
		p.LatAccel *= math.Mod(latScale, 20)
		p.Decel *= math.Mod(decelScale, 20)

		route, err := Wander(g, seed, from, routeLen, DefaultWanderPolicy())
		ref, refErr := refWander(g, seed, from, routeLen, DefaultWanderPolicy())
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Wander err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if route.Len() != ref.Len() {
			t.Fatalf("route has %d links, reference %d", route.Len(), ref.Len())
		}
		for i := 0; i < route.Len(); i++ {
			if route.At(i) != ref.At(i) {
				t.Fatalf("route element %d = %v, reference %v", i, route.At(i), ref.At(i))
			}
		}

		got, err := DriveRoute(g, route, p, seed)
		want, refErr := refDriveRoute(g, route, p, seed)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DriveRoute err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		gs, ws := got.Trace.Samples, want.Trace.Samples
		if len(gs) != len(ws) {
			t.Fatalf("%d samples, reference %d", len(gs), len(ws))
		}
		bits := math.Float64bits
		for i := range gs {
			a, b := gs[i], ws[i]
			if bits(a.T) != bits(b.T) || bits(a.Pos.X) != bits(b.Pos.X) || bits(a.Pos.Y) != bits(b.Pos.Y) ||
				bits(a.V) != bits(b.V) || bits(a.Heading) != bits(b.Heading) {
				t.Fatalf("sample %d = %+v, reference %+v", i, a, b)
			}
		}
	})
}

// refDriveRoute is DriveRoute as it was before its route profile was
// precomputed: every step re-derives the curvature of each vertex in the
// lookahead and binary-searches limits, signals and the route from the
// start.
func refDriveRoute(g *roadmap.Graph, route *roadmap.Route, p Params, seed int64) (*DriveResult, error) {
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
	rp := buildRefRouteProfile(g, route)

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

// refRouteProfile is the geometry refDriveRoute searches at every step.
type refRouteProfile struct {
	pl      geo.Polyline
	cum     []float64
	limits  []refSegmentLimit // per-link speed limits keyed by route offset
	signals []refSignalPos
}

type refSegmentLimit struct {
	from, to float64
	speed    float64
}

type refSignalPos struct {
	offset float64
	node   roadmap.NodeID
}

func buildRefRouteProfile(g *roadmap.Graph, route *roadmap.Route) *refRouteProfile {
	rp := &refRouteProfile{}
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
		rp.limits = append(rp.limits, refSegmentLimit{from: walked, to: walked + l.Length(), speed: l.Speed()})
		walked += l.Length()
		// Signal at the node this link leads to (except the final node:
		// the mover stops there anyway).
		if i < route.Len()-1 {
			end := l.EndNode(d.Forward)
			if g.Node(end).Signal {
				rp.signals = append(rp.signals, refSignalPos{offset: walked, node: end})
			}
		}
	}
	rp.cum = rp.pl.CumLengths()
	return rp
}

func (rp *refRouteProfile) speedLimitAt(s float64) float64 {
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
func (rp *refRouteProfile) curveLimitAhead(s, v float64, p Params) float64 {
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
func (rp *refRouteProfile) nextSignal(s, lookahead float64) (float64, roadmap.NodeID, bool) {
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

// refWander is Wander as it was before it validated minLength and reused
// its weights buffer.
func refWander(g *roadmap.Graph, seed int64, start roadmap.NodeID, minLength float64, pol WanderPolicy) (*roadmap.Route, error) {
	rng := rand.New(rand.NewSource(seed))
	outs := g.OutgoingAppend(nil, start, roadmap.NoDir)
	if len(outs) == 0 {
		return nil, fmt.Errorf("tracegen: start node %d has no outgoing links", start)
	}
	cur := outs[rng.Intn(len(outs))]
	dirs := []roadmap.Dir{cur}
	var total float64 = g.Link(cur.Link).Length()

	var alts []roadmap.Dir
	for total < minLength {
		node := g.Link(cur.Link).EndNode(cur.Forward)
		arrivalHeading := g.Link(cur.Link).ExitHeading(cur.Forward)
		alts = g.OutgoingAppend(alts[:0], node, cur)
		if len(alts) == 0 || (pol.AllowUTurn && rng.Float64() < 0.02) {
			// Dead end (or rare deliberate U-turn): go back.
			back := roadmap.Dir{Link: cur.Link, Forward: !cur.Forward}
			if g.Link(cur.Link).OneWay && back.Forward == false {
				return nil, fmt.Errorf("tracegen: trapped at dead end of one-way link %d", cur.Link)
			}
			cur = back
			dirs = append(dirs, cur)
			total += g.Link(cur.Link).Length()
			continue
		}
		cur = refPickWeighted(g, rng, cur, arrivalHeading, alts, pol)
		dirs = append(dirs, cur)
		total += g.Link(cur.Link).Length()
		if len(dirs) > 1_000_000 {
			return nil, fmt.Errorf("tracegen: wander did not reach %v m", minLength)
		}
	}
	return roadmap.NewRoute(g, dirs)
}

// refPickWeighted is pickWeighted with a weights slice per call.
func refPickWeighted(g *roadmap.Graph, rng *rand.Rand, in roadmap.Dir, arrivalHeading float64, alts []roadmap.Dir, pol WanderPolicy) roadmap.Dir {
	weights := make([]float64, len(alts))
	var sum float64
	smallest, smallestIdx := math.Inf(1), 0
	for i, alt := range alts {
		h := g.Link(alt.Link).EntryHeading(alt.Forward)
		a := geo.AbsAngleDiff(arrivalHeading, h)
		if a < smallest {
			smallest, smallestIdx = a, i
		}
		// Base weight decays with deflection: straight-ahead is natural.
		w := math.Cos(a/2) + 0.1
		if g.Link(alt.Link).Class == g.Link(in.Link).Class {
			w *= 1 + 2*pol.ClassStickiness
		}
		weights[i] = w
		sum += w
	}
	// Boost the straightest alternative by the straight bias.
	weights[smallestIdx] += pol.StraightBias * sum
	sum += pol.StraightBias * sum

	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return alts[i]
		}
	}
	return alts[len(alts)-1]
}
