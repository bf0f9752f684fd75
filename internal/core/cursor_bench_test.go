package core

// Gate benchmarks for the prediction-cursor layer (PR 2). The paper's
// protocol makes updates rare, so between updates every deviation check
// and server query re-walked the road graph from the last report —
// O(time since report) per call, O(quiet-period^2) aggregate. The
// cursor memoizes the walk, making monotone call streams O(time delta)
// per call. `make bench` runs these with -benchmem.

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// quietRing returns the benchmark network: a 48-link ring (≈65 m links,
// so long walks cross many intersections) plus a report at its start.
func quietRing(b *testing.B) (*roadmap.Graph, *roadmap.Route, Report) {
	b.Helper()
	g, links := buildRing(b, 48, 500)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		b.Fatal(err)
	}
	rep := Report{Seq: 1, T: 0, Pos: g.Node(0).Pt, V: 20, Heading: math.Pi / 2,
		Link: roadmap.Dir{Link: links[0], Forward: true}, Offset: 0}
	return g, route, rep
}

// BenchmarkPredictLongQuiet measures one quiet period of the map-based
// protocol on the prediction side alone: 900 monotone 1 Hz evaluations
// of the shared prediction function over one report. The stateless path
// re-walks from the report each second (O(t) per call); the cursor
// advances incrementally (O(1) per call).
func BenchmarkPredictLongQuiet(b *testing.B) {
	const quiet = 900
	g, _, rep := quietRing(b)
	mp := NewMapPredictor(g)
	var sink geo.Point
	b.Run("stateless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 1; k <= quiet; k++ {
				sink = mp.Predict(rep, float64(k))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/quiet, "ns/sample")
	})
	b.Run("cursor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := mp.NewCursor(rep)
			for k := 1; k <= quiet; k++ {
				sink = c.At(float64(k))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/quiet, "ns/sample")
	})
	_ = sink
}

// BenchmarkSourceServerQuiet is the end-to-end gate: a map-based source
// consumes a 1800 s ring-following trace (constant speed, so the
// prediction holds and the radio stays quiet) while a server replica
// answers one position query per sample. The stateless variant wraps
// the predictors so source and server are forced onto the re-walking
// Predict path; the cursor variant is the default wiring. When both
// ran, the cursor must cost at most a fifth of the stateless ns/sample.
func BenchmarkSourceServerQuiet(b *testing.B) {
	const samples = 1800
	g, route, _ := quietRing(b)
	cfg := SourceConfig{US: 100, UP: 2, Sightings: 2}
	tr := make([]trace.Sample, samples)
	s := 0.0
	for k := range tr {
		pos, _ := route.PointAt(s)
		tr[k] = trace.Sample{T: float64(k), Pos: pos}
		s += 20
		for s >= route.Length() {
			s -= route.Length()
		}
	}
	run := func(b *testing.B, stateless bool) float64 {
		var updates int64
		for i := 0; i < b.N; i++ {
			var srcPred, srvPred GraphPredictor = NewMapPredictor(g), NewMapPredictor(g)
			if stateless {
				srcPred = nocursorGraphPred{srcPred}
				srvPred = nocursorGraphPred{srvPred}
			}
			src, err := NewMapSource(cfg, srcPred)
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(srvPred)
			for _, smp := range tr {
				if u, ok := src.OnSample(smp); ok {
					srv.Apply(u)
					updates++
				}
				srv.Position(smp.T)
			}
		}
		perSample := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / samples
		b.ReportMetric(perSample, "ns/sample")
		b.ReportMetric(float64(updates)/float64(b.N), "updates/run")
		return perSample
	}
	var stateless, cursor float64
	b.Run("stateless", func(b *testing.B) { stateless = run(b, true) })
	b.Run("cursor", func(b *testing.B) { cursor = run(b, false) })
	if stateless > 0 && cursor > 0 && stateless < 5*cursor {
		b.Fatalf("cursor %.1f ns/sample is %.1fx faster than stateless %.1f, want >= 5x", cursor, stateless/cursor, stateless)
	}
}

// BenchmarkServerQueryFanout mimics a location-service query stream
// against one object between updates: monotone query times, many
// queries per report. This is the per-object cost inside every
// Nearest/Within fan-out.
func BenchmarkServerQueryFanout(b *testing.B) {
	g, _, rep := quietRing(b)
	run := func(b *testing.B, pred Predictor) {
		srv := NewServer(pred)
		srv.Apply(Update{Report: rep})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Position(1 + float64(i%900))
		}
	}
	b.Run("stateless", func(b *testing.B) { run(b, nocursorPred{NewMapPredictor(g)}) })
	b.Run("cursor", func(b *testing.B) { run(b, NewMapPredictor(g)) })
}
