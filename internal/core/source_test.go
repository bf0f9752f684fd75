package core

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// lineTrace produces 1 Hz samples moving east at v m/s.
func lineTrace(v float64, n int) []trace.Sample {
	out := make([]trace.Sample, n)
	for i := range out {
		out[i] = trace.Sample{T: float64(i), Pos: geo.Pt(v*float64(i), 0)}
	}
	return out
}

func defaultCfg() SourceConfig {
	return SourceConfig{US: 100, UP: 5, Sightings: 2}
}

func TestSourceConfigValidate(t *testing.T) {
	bad := []SourceConfig{
		{US: 0, UP: 1, Sightings: 2},
		{US: 100, UP: -1, Sightings: 2},
		{US: 100, UP: 100, Sightings: 2},
		{US: 100, UP: 5, Sightings: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if err := defaultCfg().Validate(); err != nil {
		t.Errorf("good config failed: %v", err)
	}
}

func TestLinearSourceNoUpdatesOnStraightLine(t *testing.T) {
	src, err := NewSource(defaultCfg(), LinearPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, s := range lineTrace(20, 600) {
		if _, ok := src.OnSample(s); ok {
			updates++
		}
	}
	// Perfect linear motion with perfect sensing: only the initial update.
	if updates != 1 {
		t.Errorf("updates = %d, want 1", updates)
	}
}

func TestStaticSourceUpdatesByDistance(t *testing.T) {
	src, err := NewSource(defaultCfg(), StaticPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, s := range lineTrace(20, 601) { // 12 km of travel
		if _, ok := src.OnSample(s); ok {
			updates++
		}
	}
	// Distance-based reporting: an update every (US-UP)=95 m of travel →
	// about 12000/95 ≈ 126.
	if updates < 100 || updates > 140 {
		t.Errorf("updates = %d, want ≈126", updates)
	}
}

func TestDeviationBoundInvariant(t *testing.T) {
	// The protocol guarantee (paper §2): at every sample, the distance
	// between the sensor position and the server's prediction never
	// exceeds u_s - u_p after processing the sample.
	cfg := defaultCfg()
	src, err := NewSource(cfg, LinearPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(LinearPredictor{})
	// Zig-zag motion breaks linear prediction constantly.
	var samples []trace.Sample
	for i := 0; i < 900; i++ {
		tt := float64(i)
		y := 300 * math.Sin(tt/40)
		samples = append(samples, trace.Sample{T: tt, Pos: geo.Pt(15*tt, y)})
	}
	for _, s := range samples {
		if u, ok := src.OnSample(s); ok {
			srv.Apply(u)
		}
		if p, ok := srv.Position(s.T); ok {
			if d := p.Dist(s.Pos); d > cfg.US-cfg.UP+1e-9 {
				t.Fatalf("t=%v deviation %v > %v", s.T, d, cfg.US-cfg.UP)
			}
		}
	}
	if srv.Updates() < 5 {
		t.Errorf("expected many updates on zig-zag, got %d", srv.Updates())
	}
}

func TestSourceServerAgreePredictions(t *testing.T) {
	// Whatever the trajectory, source and server must compute identical
	// predictions from the same report (the core protocol requirement).
	src, err := NewSource(defaultCfg(), LinearPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(LinearPredictor{})
	for _, s := range lineTrace(25, 120) {
		if u, ok := src.OnSample(s); ok {
			srv.Apply(u)
		}
		rep, has := src.LastReport()
		if !has {
			continue
		}
		want := src.Predictor().Predict(rep, s.T)
		got, _ := srv.Position(s.T)
		if want.Dist(got) > 1e-12 {
			t.Fatalf("replicas disagree at t=%v: %v vs %v", s.T, want, got)
		}
	}
}

func TestMapSourceOnLNetwork(t *testing.T) {
	// L-shaped road: the map-based source should send only the initial
	// update because the predictor follows the corner.
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1000, 0))
	n2 := b.AddNode(geo.Pt(1000, 3000))
	b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	b.AddLink(roadmap.LinkSpec{From: n1, To: n2})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]trace.Sample, 0, 200)
	for i := 0; i < 200; i++ {
		d := 20 * float64(i)
		var p geo.Point
		if d <= 1000 {
			p = geo.Pt(d, 0)
		} else {
			p = geo.Pt(1000, d-1000)
		}
		samples = append(samples, trace.Sample{T: float64(i), Pos: p})
	}

	mapSrc, err := NewMapSource(defaultCfg(), NewMapPredictor(g))
	if err != nil {
		t.Fatal(err)
	}
	linSrc, err := NewSource(defaultCfg(), LinearPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	var mapUpdates, linUpdates int
	for _, s := range samples {
		if _, ok := mapSrc.OnSample(s); ok {
			mapUpdates++
		}
		if _, ok := linSrc.OnSample(s); ok {
			linUpdates++
		}
	}
	if mapUpdates >= linUpdates {
		t.Errorf("map-based %d updates, linear %d: map should win on a corner",
			mapUpdates, linUpdates)
	}
	if mapUpdates != 1 {
		t.Errorf("map-based updates = %d, want 1 (predictor follows the corner)", mapUpdates)
	}
}

func TestMapSourceLinkLostFallback(t *testing.T) {
	// Object drives off the map: the source must send a link-less update
	// (linear fall-back) and later re-match.
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(2000, 0))
	b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	src, err := NewMapSource(cfg, NewMapPredictor(g))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewMapPredictor(g))

	var sawLost, sawRematch bool
	feed := func(s trace.Sample) {
		u, ok := src.OnSample(s)
		if !ok {
			return
		}
		srv.Apply(u)
		switch u.Reason {
		case ReasonLinkLost:
			sawLost = true
			if u.Report.Link.IsValid() {
				t.Error("link-lost update must carry an empty link")
			}
		case ReasonRematch:
			sawRematch = true
			if !u.Report.Link.IsValid() {
				t.Error("rematch update must carry a link")
			}
		}
	}
	tt := 0.0
	// On-road eastbound.
	for d := 0.0; d < 800; d += 15 {
		feed(trace.Sample{T: tt, Pos: geo.Pt(d, 0)})
		tt++
	}
	// Veer off road to the north.
	for y := 15.0; y < 600; y += 15 {
		feed(trace.Sample{T: tt, Pos: geo.Pt(800, y)})
		tt++
	}
	// Come back to the road and continue.
	for y := 600.0; y > 0; y -= 15 {
		feed(trace.Sample{T: tt, Pos: geo.Pt(800, y)})
		tt++
	}
	for d := 800.0; d < 1500; d += 15 {
		feed(trace.Sample{T: tt, Pos: geo.Pt(d, 0)})
		tt++
	}
	if !sawLost {
		t.Error("never saw a link-lost update")
	}
	if !sawRematch {
		t.Error("never saw a rematch update")
	}
}

func TestKnownRouteSourceFollowsRoute(t *testing.T) {
	// A route with a corner: known-route DR sends only the initial update
	// for constant speed (direction changes are free).
	b := roadmap.NewBuilder()
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1000, 0))
	n2 := b.AddNode(geo.Pt(1000, 3000))
	l0 := b.AddLink(roadmap.LinkSpec{From: n0, To: n1})
	l1 := b.AddLink(roadmap.LinkSpec{From: n1, To: n2})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	route, err := roadmap.NewRoute(g, []roadmap.Dir{
		{Link: l0, Forward: true}, {Link: l1, Forward: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(defaultCfg(), &RoutePredictor{Route: route})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for i := 0; i < 190; i++ {
		d := 20 * float64(i)
		p, _ := route.PointAt(d)
		if _, ok := src.OnSample(trace.Sample{T: float64(i), Pos: p}); ok {
			updates++
		}
	}
	if updates != 1 {
		t.Errorf("known-route updates = %d, want 1", updates)
	}
}

func TestTimeBasedReporting(t *testing.T) {
	cfg := defaultCfg()
	cfg.US = 1e9 // deviation never fires
	cfg.Aux = AuxPolicy{Period: 30}
	src, err := NewSource(cfg, StaticPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, s := range lineTrace(10, 301) {
		if u, ok := src.OnSample(s); ok {
			updates++
			if updates > 1 && u.Reason != ReasonPeriodic {
				t.Errorf("reason = %v", u.Reason)
			}
		}
	}
	// Init + one per 30 s over 300 s.
	if updates < 10 || updates > 12 {
		t.Errorf("updates = %d", updates)
	}
}

func TestMovementBasedReporting(t *testing.T) {
	cfg := defaultCfg()
	cfg.US = 1e9
	cfg.Aux = AuxPolicy{MoveDist: 400}
	src, err := NewSource(cfg, StaticPredictor{})
	if err != nil {
		t.Fatal(err)
	}
	var updates int
	for _, s := range lineTrace(10, 401) { // 4 km
		if _, ok := src.OnSample(s); ok {
			updates++
		}
	}
	if updates < 10 || updates > 12 {
		t.Errorf("updates = %d, want ≈11", updates)
	}
}

func TestServerIgnoresStaleUpdates(t *testing.T) {
	srv := NewServer(LinearPredictor{})
	srv.Apply(Update{Report: Report{Seq: 5, T: 10, Pos: geo.Pt(1, 1)}})
	srv.Apply(Update{Report: Report{Seq: 3, T: 5, Pos: geo.Pt(9, 9)}}) // stale
	rep, _ := srv.LastReport()
	if rep.Seq != 5 {
		t.Errorf("server applied stale update: seq %d", rep.Seq)
	}
	if srv.Updates() != 1 {
		t.Errorf("updates = %d", srv.Updates())
	}
	if want := int64((Report{Seq: 5, T: 10, Pos: geo.Pt(1, 1)}).EncodedSize()); srv.Bytes() != want {
		t.Errorf("bytes = %d, want %d", srv.Bytes(), want)
	}
}

func TestServerBeforeFirstUpdate(t *testing.T) {
	srv := NewServer(LinearPredictor{})
	if _, ok := srv.Position(0); ok {
		t.Error("position before first update should be unavailable")
	}
}

func TestDTDRSendsMoreUpdatesWhenStationaryThreshold(t *testing.T) {
	// dtdr's decaying threshold forces periodic-ish refreshes even on a
	// perfectly predicted path, unlike sdr.
	mkSrc := func(th ThresholdPolicy) *Source {
		cfg := defaultCfg()
		cfg.Threshold = th
		src, err := NewSource(cfg, LinearPredictor{})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	count := func(src *Source) int {
		n := 0
		for _, s := range lineTrace(20, 600) {
			if _, ok := src.OnSample(s); ok {
				n++
			}
		}
		return n
	}
	// The floor must fall below u_p so the decayed threshold can trigger
	// even with zero deviation (deviation + u_p > threshold).
	sdr := count(mkSrc(FixedThreshold{US: 100}))
	dtdr := count(mkSrc(NewDTDRThreshold(100, 60, 3)))
	if dtdr <= sdr {
		t.Errorf("dtdr (%d) should send more updates than sdr (%d) on a straight line", dtdr, sdr)
	}
}

// TestEmittedReportsSurviveCodec pins the shared prediction function
// across the wire: every report a source emits decodes from its own
// encoding bit for bit, so the source and every server predict from the
// same numbers. Static, linear, CTRV, known-route and map sources each
// follow a noisy lap of a ring road.
func TestEmittedReportsSurviveCodec(t *testing.T) {
	ring, links := buildRing(t, 24, 500)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(ring, dirs)
	if err != nil {
		t.Fatal(err)
	}
	lap := &trace.Trace{}
	for i := 0; float64(i)*13.71 < route.Length(); i++ {
		p, _ := route.PointAt(float64(i) * 13.71)
		lap.Samples = append(lap.Samples, trace.Sample{T: float64(i), Pos: p})
	}
	lap = trace.ApplyNoise(lap, trace.NewGaussMarkov(7, 3, 20))

	cfg := SourceConfig{US: 20, UP: 5, Sightings: 4}
	mapSrc, err := NewMapSource(cfg, NewMapPredictor(ring))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*Source{"map": mapSrc}
	for name, p := range map[string]Predictor{
		"static": StaticPredictor{}, "linear": LinearPredictor{},
		"ctrv": CTRVPredictor{}, "route": &RoutePredictor{Route: route},
	} {
		if sources[name], err = NewSource(cfg, p); err != nil {
			t.Fatal(err)
		}
	}
	var linked, routeOffsets, omegas int // the codec's optional fields, exercised
	for name, src := range sources {
		var emitted int
		for _, s := range lap.Samples {
			u, ok := src.OnSample(s)
			if !ok {
				continue
			}
			emitted++
			in := u.Report
			if in.Link.IsValid() {
				linked++
			}
			if in.RouteOffset != 0 {
				routeOffsets++
			}
			if in.Omega != 0 {
				omegas++
			}
			out, n, err := DecodeReport(in.AppendBinary(nil))
			if err != nil || n != in.EncodedSize() {
				t.Fatalf("%s seq %d: decode = %v, %d bytes", name, in.Seq, err, n)
			}
			same := out.Seq == in.Seq && out.Link == in.Link
			for i, f := range [][2]float64{
				{in.T, out.T}, {in.Pos.X, out.Pos.X}, {in.Pos.Y, out.Pos.Y},
				{in.V, out.V}, {in.Heading, out.Heading}, {in.Offset, out.Offset},
				{in.RouteOffset, out.RouteOffset}, {in.Omega, out.Omega},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Errorf("%s seq %d: field %d %v decodes as %v", name, in.Seq, i, f[0], f[1])
					same = false
				}
			}
			if !same {
				t.Fatalf("%s: emitted %+v, decoded %+v", name, in, out)
			}
		}
		if emitted < 3 {
			t.Fatalf("%s: %d updates over the lap, want several", name, emitted)
		}
	}
	if linked == 0 || routeOffsets == 0 || omegas == 0 {
		t.Fatalf("optional fields unexercised: %d links, %d route offsets, %d turn rates", linked, routeOffsets, omegas)
	}
}
