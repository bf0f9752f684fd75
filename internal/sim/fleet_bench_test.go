package sim

// Gate benchmark for the 10k-object fleet step: every simulated sample
// funnels through Source.OnSample's deviation check and a service
// Position query, both served by prediction cursors. The per-sample path
// allocates nothing, so what a run allocates is per object (its fleet
// state, cursors, index scratch) and per worker round; `make bench` runs
// it and it fails itself above its allocation ceiling.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
	"mapdr/internal/tracegen"
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
	var before, after runtime.MemStats
	var mallocs uint64
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
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := fl.Run()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		if res.Samples != benchFleetN*benchFleetSamples {
			b.Fatalf("samples = %d", res.Samples)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Samples), "ns/sample")
	}
	// 57,969 allocs/op with 2 workers (57,625 with 1), about 5.8 per
	// object; every further worker adds ~170 (its goroutines and
	// buffers).
	ceiling := 58_000 + 200*uint64(runtime.GOMAXPROCS(0))
	if allocs := mallocs / uint64(b.N); b.N > 1 && !raceEnabled && allocs > ceiling {
		b.Fatalf("%d allocs/op, want <= %d", allocs, ceiling)
	}
}

// BenchmarkGenerateFleet generates the routes, ground-truth traces and
// sources of 100 vehicles on city 1 with the benchmark's 15 km routes
// and city dynamics, on one worker; one op is the whole fleet,
// registry included. The run fails itself above its allocation
// ceiling: about 105 allocations per vehicle (registration, route,
// profile tables, trace growth, source), none per integration step or
// per intersection.
func BenchmarkGenerateFleet(b *testing.B) {
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	spec := FleetSpec{
		N: 100, Seed: 1, RouteLen: 15000, Workers: 1, IDFormat: "car-%04d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateFleet(cor.Graph, locserv.New(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spec.N), "ns/vehicle")
	// About 10,490 allocs/op; a weights slice per intersection made it
	// 15,605.
	const ceiling = 10_600
	if allocs := (after.Mallocs - before.Mallocs) / uint64(b.N); b.N > 1 && !raceEnabled && allocs > ceiling {
		b.Fatalf("%d allocs/op, want <= %d", allocs, ceiling)
	}
}
