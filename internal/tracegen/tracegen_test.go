package tracegen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
)

// straightRoad builds a single 5 km straight link with a 100 km/h limit.
func straightRoad(t *testing.T) (*roadmap.Graph, *roadmap.Route) {
	t.Helper()
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(5000, 0))
	l := b.AddLink(roadmap.LinkSpec{From: n0, To: n1, SpeedLimit: 100 / 3.6})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := roadmap.NewRoute(g, []roadmap.Dir{{Link: l, Forward: true}})
	if err != nil {
		t.Fatal(err)
	}
	return g, r
}

func TestDriveStraightRoad(t *testing.T) {
	g, r := straightRoad(t)
	p := CarParams()
	p.SpeedJitter = 0
	res, err := DriveRoute(g, r, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.Len() < 100 {
		t.Fatalf("short trace: %d samples", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Covers the whole road.
	if d := tr.PathLength(); d < 4900 || d > 5100 {
		t.Errorf("path length = %v", d)
	}
	// Cruise speed reaches ~100 km/h but never exceeds the limit.
	var vMax float64
	for _, s := range tr.Samples {
		if s.V > vMax {
			vMax = s.V
		}
	}
	if vMax > 100/3.6+0.5 {
		t.Errorf("vMax = %.1f km/h exceeds limit", vMax*3.6)
	}
	if vMax < 95/3.6 {
		t.Errorf("vMax = %.1f km/h never reached cruise", vMax*3.6)
	}
	// Acceleration limits hold between samples.
	for i := 1; i < tr.Len(); i++ {
		dv := tr.Samples[i].V - tr.Samples[i-1].V
		dt := tr.Samples[i].T - tr.Samples[i-1].T
		if dv/dt > p.Accel+0.01 || dv/dt < -p.Decel-0.01 {
			t.Fatalf("acceleration %v m/s^2 outside [%v, %v]", dv/dt, -p.Decel, p.Accel)
		}
	}
}

func TestDriveSlowsInCurve(t *testing.T) {
	// Straight approach, tight 60 m-radius curve, straight exit.
	b := roadmap.NewBuilder()
	approach := geo.Polyline{geo.Pt(0, 0), geo.Pt(1000, 0)}
	curve := geo.Arc(geo.Pt(1000, 60), 60, -math.Pi/2, 0, 24)
	exit := geo.Polyline{geo.Pt(1060, 60), geo.Pt(1060, 1000)}
	full := append(append(approach.Clone(), curve[1:]...), exit[1:]...)
	n0 := b.AddNode(full[0])
	n1 := b.AddNode(full[len(full)-1])
	l := b.AddLink(roadmap.LinkSpec{From: n0, To: n1, Shape: full[1 : len(full)-1], SpeedLimit: 100 / 3.6})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := roadmap.NewRoute(g, []roadmap.Dir{{Link: l, Forward: true}})
	if err != nil {
		t.Fatal(err)
	}
	p := CarParams()
	p.SpeedJitter = 0
	res, err := DriveRoute(g, r, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Speed inside the curve obeys v = sqrt(aLat * r) ≈ sqrt(2.2*60) ≈ 11.5.
	vCurveMax := math.Sqrt(p.LatAccel*60) * 1.15
	for _, s := range res.Trace.Samples {
		if s.Pos.X > 1005 && s.Pos.Y < 55 { // inside the curve
			if s.V > vCurveMax {
				t.Fatalf("speed in curve %.1f m/s > %.1f", s.V, vCurveMax)
			}
		}
	}
}

func TestDriveStopsAtRedSignal(t *testing.T) {
	// Two links joined by a signalised node (id 1, phase 48 s): with a
	// 1000 m approach at 50 km/h the car arrives at t≈76 s, inside the red
	// window [72, 99), so it must come to a full stop at the stop line.
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	mid := b.AddSignalNode(geo.Pt(1000, 0))
	n1 := b.AddNode(geo.Pt(1800, 0))
	l0 := b.AddLink(roadmap.LinkSpec{From: n0, To: mid, SpeedLimit: 50 / 3.6})
	l1 := b.AddLink(roadmap.LinkSpec{From: mid, To: n1, SpeedLimit: 50 / 3.6})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !signalIsRed(mid, 76) {
		t.Fatal("test setup: expected red at t=76")
	}
	r, err := roadmap.NewRoute(g, []roadmap.Dir{{Link: l0, Forward: true}, {Link: l1, Forward: true}})
	if err != nil {
		t.Fatal(err)
	}
	p := CarParams()
	p.SpeedJitter = 0
	res, err := DriveRoute(g, r, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	for _, s := range res.Trace.Samples {
		if s.V < 0.3 && s.Pos.X > 900 && s.Pos.X < 1002 {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Error("vehicle never stopped at the red signal")
	}
	// And it eventually crosses and finishes the route.
	if d := res.Trace.PathLength(); d < 1700 {
		t.Errorf("path length = %v", d)
	}
}

func TestDriveDeterminism(t *testing.T) {
	g, r := straightRoad(t)
	a, err := DriveRoute(g, r, CarParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DriveRoute(g, r, CarParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Trace.Samples {
		if a.Trace.Samples[i] != b.Trace.Samples[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestDriveInvalidParams(t *testing.T) {
	g, r := straightRoad(t)
	p := CarParams()
	p.Dt = 0
	if _, err := DriveRoute(g, r, p, 1); err == nil {
		t.Error("expected error for Dt=0")
	}
	p = CarParams()
	p.SamplePer = 0.1
	p.Dt = 0.5
	if _, err := DriveRoute(g, r, p, 1); err == nil {
		t.Error("expected error for SamplePer < Dt")
	}
	// A non-finite field is refused by name, never driven into a
	// truncated trace (NaN Dt used to give 0 samples, NaN Accel 1).
	for i := 0; i < reflect.TypeOf(Params{}).NumField(); i++ {
		name := reflect.TypeOf(Params{}).Field(i).Name
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := CarParams()
			reflect.ValueOf(&p).Elem().Field(i).SetFloat(bad)
			res, err := DriveRoute(g, r, p, 1)
			if err == nil {
				t.Errorf("%s = %v: no error, %d samples", name, bad, res.Trace.Len())
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: error %q does not name the field", name, bad, err)
			}
		}
	}
	// Finite params whose product is not a number (a zero SpeedFactor
	// times a jitter factor that overflows once the jitter state passes
	// 1) are refused too, not cut short.
	p = CarParams()
	p.SpeedFactor, p.SpeedJitter = 0, math.MaxFloat64
	if res, err := DriveRoute(g, r, p, 1); err == nil {
		t.Errorf("NaN speed: no error, %d samples", res.Trace.Len())
	}
}

func TestWanderInvalidLength(t *testing.T) {
	cor, err := mapgen.CityGrid(mapgen.CityConfig{
		Seed: 1, Rows: 6, Cols: 6, Spacing: 200, Jitter: 10, SignalProb: 0.3, AvenueEach: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// NaN used to return a one-link route, +Inf to walk 1,000,000 links.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if r, err := Wander(cor.Graph, 1, 0, bad, DefaultWanderPolicy()); err == nil {
			t.Errorf("minLength %v: no error, a %d-link route", bad, r.Len())
		}
	}
	// A length out of reach on a dead-end road ends at the link cap
	// instead of bouncing between the two ends without bound.
	g, _ := straightRoad(t)
	if r, err := Wander(g, 1, 0, 1e12, DefaultWanderPolicy()); err == nil {
		t.Errorf("minLength 1e12 on a 5 km road: no error, a %d-link route", r.Len())
	}
}

func TestWanderCoversRequestedLength(t *testing.T) {
	cor, err := mapgen.CityGrid(mapgen.CityConfig{
		Seed: 1, Rows: 15, Cols: 15, Spacing: 200, Jitter: 10,
		SignalProb: 0.3, DropProb: 0.05, AvenueEach: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Wander(cor.Graph, 2, 0, 20000, DefaultWanderPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() < 20000 {
		t.Errorf("route length = %v", r.Length())
	}
	// Route continuity is validated by NewRoute inside Wander; also check
	// no immediate A-B-A flapping dominates.
	flips := 0
	dirs := r.Dirs()
	for i := 2; i < len(dirs); i++ {
		if dirs[i].Link == dirs[i-2].Link && dirs[i-1].Link == dirs[i-2].Link {
			flips++
		}
	}
	if flips > len(dirs)/10 {
		t.Errorf("wander flaps: %d of %d", flips, len(dirs))
	}
}

func TestWanderDeterminism(t *testing.T) {
	cor, err := mapgen.FootpathWeb(mapgen.FootpathConfig{
		Seed: 1, Rows: 12, Cols: 12, Spacing: 60, Jitter: 10, DiagProb: 0.3, DropProb: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Wander(cor.Graph, 5, 0, 3000, DefaultWanderPolicy())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Wander(cor.Graph, 5, 0, 3000, DefaultWanderPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("same seed different routes")
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatal("same seed different routes")
		}
	}
}

func TestCorridorRoute(t *testing.T) {
	cfg := mapgen.DefaultFreewayConfig(11)
	cfg.LengthKm = 15
	cor, err := mapgen.Freeway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := CorridorRoute(cor.Graph, cor.Main)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() < 15000 {
		t.Errorf("corridor route = %v m", r.Length())
	}
	// All links on the through-route are motorway.
	for _, d := range r.Dirs() {
		if cor.Graph.Link(d.Link).Class != roadmap.ClassMotorway {
			t.Error("corridor route leaves the motorway")
			break
		}
	}
	if _, err := CorridorRoute(cor.Graph, cor.Main[:1]); err == nil {
		t.Error("expected error for single-node corridor")
	}
}

func TestPedestrianSlowAndPausing(t *testing.T) {
	cor, err := mapgen.FootpathWeb(mapgen.FootpathConfig{
		Seed: 2, Rows: 15, Cols: 15, Spacing: 70, Jitter: 15, DiagProb: 0.3, DropProb: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Wander(cor.Graph, 3, 10, 4000, DefaultWanderPolicy())
	if err != nil {
		t.Fatal(err)
	}
	res, err := DriveRoute(cor.Graph, r, PedestrianParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Trace.ComputeStats()
	if st.AvgSpeedKmh < 2.5 || st.AvgSpeedKmh > 7 {
		t.Errorf("walking avg speed = %.1f km/h", st.AvgSpeedKmh)
	}
	if st.MaxSpeedKmh > 9 {
		t.Errorf("walking max speed = %.1f km/h", st.MaxSpeedKmh)
	}
}
