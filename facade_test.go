package mapdr

import (
	"math"
	"net/http/httptest"
	"testing"
)

// TestFacadeConstructors exercises every public constructor end to end.
func TestFacadeConstructors(t *testing.T) {
	// Projection round trip.
	proj := NewProjection(LatLon{Lat: 48.7, Lon: 9.1})
	ll := LatLon{Lat: 48.71, Lon: 9.12}
	back := proj.Inverse(proj.Forward(ll))
	if math.Abs(back.Lat-ll.Lat) > 1e-9 || math.Abs(back.Lon-ll.Lon) > 1e-9 {
		t.Error("projection round trip failed")
	}

	// Generators.
	iu := DefaultInterUrbanConfig(1)
	iu.LengthKm = 8
	cor, err := GenerateInterUrban(iu)
	if err != nil {
		t.Fatal(err)
	}
	if cor.Graph.NumLinks() == 0 {
		t.Error("empty inter-urban network")
	}
	fp := DefaultFootpathConfig(1)
	fp.Rows, fp.Cols = 8, 8
	park, err := GenerateFootpaths(fp)
	if err != nil {
		t.Fatal(err)
	}

	// Movement parameter presets are distinct and sane.
	if CarParams().Accel <= 0 || CityCarParams().StopRate <= 0 || PedestrianParams().SpeedFactor <= 0 {
		t.Error("movement presets broken")
	}

	// Wander + pedestrian drive over the footpath web.
	route, err := Wander(park.Graph, 2, 0, 1500, DefaultWanderPolicy())
	if err != nil {
		t.Fatal(err)
	}
	walk, err := DriveRoute(park.Graph, route, PedestrianParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if walk.Trace.Len() < 100 {
		t.Errorf("walk samples = %d", walk.Trace.Len())
	}

	// Speed-capped predictor through the facade.
	sp := NewSpeedCappedMapPredictor(cor.Graph, true)
	if sp.Graph() != cor.Graph {
		t.Error("speed-capped graph accessor")
	}
	src, err := NewMapSource(SourceConfig{US: 100, UP: 5, Sightings: 4}, sp)
	if err != nil {
		t.Fatal(err)
	}
	srvRep := NewServer(NewSpeedCappedMapPredictor(cor.Graph, true))
	n := 0
	for _, s := range walk.Trace.Samples[:100] {
		if u, ok := src.OnSample(s); ok {
			srvRep.Apply(u)
			n++
		}
	}
	_ = n

	// Map learner defaults.
	if DefaultMapLearnerConfig().CellSize <= 0 {
		t.Error("learner defaults broken")
	}
	learner := NewMapLearner(MapLearnerConfig{CellSize: 30, MinVisits: 1})
	learner.AddTrace(walk.Trace)
	if res, err := learner.Build(); err != nil || res.CoveredCells == 0 {
		t.Errorf("learner did not learn the trace: %v", err)
	}

	// NewRoute through the facade.
	dirs := route.Dirs()
	r2, err := NewRoute(park.Graph, dirs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Error("facade NewRoute")
	}

	// CTRV predictor alias usable.
	var ctrv CTRVPredictor
	p := ctrv.Predict(Report{T: 0, Pos: Pt(0, 0), V: 5, Heading: 0, Omega: 0.1}, 3)
	if !p.IsFinite() {
		t.Error("CTRV produced non-finite point")
	}
}

// TestFacadeCursor exercises the prediction-cursor surface: cursors
// minted through the facade must match the stateless Predict bit for
// bit, and PredictedState must agree with the cursor's AtState.
func TestFacadeCursor(t *testing.T) {
	cfg := DefaultCityConfig(4)
	cfg.Rows, cfg.Cols = 4, 4
	cor, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp := NewMapPredictor(cor.Graph)
	link := cor.Graph.Link(0)
	rep := Report{Seq: 1, T: 0, Pos: link.Shape[0], V: 12,
		Link: Dir{Link: link.ID, Forward: true}, Offset: 0}
	c := mp.NewCursor(rep)
	for _, qt := range []float64{1, 30, 12, 300, 90} {
		if got, want := c.At(qt), mp.Predict(rep, qt); got != want {
			t.Fatalf("t=%v: cursor %v != stateless %v", qt, got, want)
		}
	}
	pos, heading := PredictedState(mp, rep, 45)
	if pos != mp.Predict(rep, 45) {
		t.Error("PredictedState position diverged from Predict")
	}
	if math.IsNaN(heading) {
		t.Error("PredictedState heading is NaN")
	}
}

// TestFacadeTransport drives the full exported transport surface: a
// source streaming through the loopback, the lossy network link, and
// an HTTP ingest client against a live location service handler.
func TestFacadeTransport(t *testing.T) {
	// Loopback into a location service sink, via frame codec round trip.
	svc := NewShardedLocationService(4)
	if err := svc.Register("cab-1", LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	rec := TransportRecord{ID: "cab-1", Update: Update{
		Report: Report{Seq: 1, T: 0, Pos: Pt(5, 6), V: 3},
	}}
	frame, err := EncodeUpdateFrame([]TransportRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	recs, n, err := DecodeUpdateFrame(frame)
	if err != nil || n != len(frame) || len(recs) != 1 || recs[0].ID != "cab-1" {
		t.Fatalf("frame round trip: %v n=%d recs=%v", err, n, recs)
	}

	lb := NewLoopbackTransport(svc.Sink(nil))
	if err := lb.Send(0, recs); err != nil {
		t.Fatal(err)
	}
	if pos, ok := svc.Position("cab-1", 0); !ok || pos != Pt(5, 6) {
		t.Fatalf("loopback delivery: %v %v", pos, ok)
	}
	if st := lb.Stats(); st.Delivered != 1 || st.BytesSent == 0 {
		t.Fatalf("loopback stats: %+v", st)
	}

	// SimLink transport delays delivery on a latency link.
	var got []TransportRecord
	sink := TransportSinkFunc(func(batch []TransportRecord) error {
		got = append(got, batch...)
		return nil
	})
	sl := NewSimLinkTransport(NewNetworkLink(1, 10, 0, 0), sink)
	sl.Send(0, recs)
	sl.Flush(5)
	if len(got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	sl.Flush(10)
	if len(got) != 1 {
		t.Fatalf("delivered %d records after latency", len(got))
	}

	// HTTP ingest client against the service's ingest handler.
	ts := httptest.NewServer(NewLocationNode(svc, func(ObjectID) Predictor {
		return LinearPredictor{}
	}).Handler())
	defer ts.Close()
	cl := NewIngestClient(ts.URL, ts.Client())
	next := rec
	next.ID = "cab-2"
	if err := cl.Send(0, []TransportRecord{next}); err != nil {
		t.Fatal(err)
	}
	if pos, ok := svc.Position("cab-2", 0); !ok || pos != Pt(5, 6) {
		t.Fatalf("HTTP ingest delivery: %v %v", pos, ok)
	}
	if st := cl.Stats(); st.Frames != 1 || st.Delivered != 1 {
		t.Fatalf("client stats: %+v", st)
	}
}
