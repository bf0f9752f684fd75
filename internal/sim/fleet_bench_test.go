package sim

// Gate benchmark for the 10k-object fleet step (PR 2): every simulated
// sample funnels through Source.OnSample's deviation check and a
// service Position query, both served by prediction cursors since the
// cursor layer landed. `make bench` runs it; it states no bound.

import (
	"fmt"
	"math"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

const (
	benchFleetN       = 10000
	benchFleetSamples = 30
)

// benchFleetWorld caches the shared road network and per-object traces:
// vehicles circulate a ring at staggered offsets and constant speed, so
// the run is one long quiet period and the per-sample cost is the
// prediction path, not update churn.
type benchFleetWorld struct {
	g      *roadmap.Graph
	traces []*trace.Trace
}

var fleetWorld *benchFleetWorld

func getFleetWorld(b *testing.B) *benchFleetWorld {
	b.Helper()
	if fleetWorld != nil {
		return fleetWorld
	}
	bd := roadmap.NewBuilder()
	const n, r = 48, 500.0
	ids := make([]roadmap.NodeID, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		ids[i] = bd.AddNode(geo.Pt(r*math.Cos(ang), r*math.Sin(ang)))
	}
	dirs := make([]roadmap.Dir, n)
	for i := 0; i < n; i++ {
		dirs[i] = roadmap.Dir{Link: bd.AddLink(roadmap.LinkSpec{From: ids[i], To: ids[(i+1)%n]}), Forward: true}
	}
	g, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		b.Fatal(err)
	}
	w := &benchFleetWorld{g: g, traces: make([]*trace.Trace, benchFleetN)}
	for i := range w.traces {
		s := float64(i%997) / 997 * route.Length()
		v := 12 + float64(i%9)
		samples := make([]trace.Sample, benchFleetSamples)
		for k := range samples {
			pos, _ := route.PointAt(s)
			samples[k] = trace.Sample{T: float64(k), Pos: pos}
			s += v
			for s >= route.Length() {
				s -= route.Length()
			}
		}
		w.traces[i] = &trace.Trace{Samples: samples}
	}
	fleetWorld = w
	return w
}

// BenchmarkFleetSteps10k runs a 10k-vehicle fleet for benchFleetSamples
// simulated seconds against a sharded store; one op is the whole run.
// Sources and service are rebuilt per op (the protocol endpoints are
// stateful), which is a small fraction of the stepped samples.
func BenchmarkFleetSteps10k(b *testing.B) {
	w := getFleetWorld(b)
	cfg := core.SourceConfig{US: 100, UP: 2, Sightings: 2}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := locserv.NewSharded(locserv.DefaultShards)
		objs := make([]FleetObject, benchFleetN)
		for j := range objs {
			id := locserv.ObjectID(fmt.Sprintf("fl-%05d", j))
			src, err := core.NewMapSource(cfg, core.NewMapPredictor(w.g))
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Register(id, core.NewMapPredictor(w.g)); err != nil {
				b.Fatal(err)
			}
			objs[j] = FleetObject{ID: id, Truth: w.traces[j], Source: src}
		}
		fl := Fleet{Service: svc, Objects: objs}
		b.StartTimer()
		res, err := fl.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples != benchFleetN*benchFleetSamples {
			b.Fatalf("samples = %d", res.Samples)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Samples), "ns/sample")
	}
}
