package mapdr

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (indexed by the README's "Reproduce the paper" section and
// cmd/drsim's package comment). Each benchmark runs
// the corresponding experiment end to end and reports the paper's metric
// (updates per hour per protocol) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every artifact. Benchmarks run the scenarios at 10% scale;
// use cmd/drsim for full paper-scale runs.

import (
	"fmt"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/experiments"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

var benchOpts = experiments.Options{Seed: 42, Scale: 0.1}

// BenchmarkTable1 regenerates Table 1 (trace characteristics).
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Stats.AvgSpeedKmh, "kmh-avg-"+shortName(r.Scenario))
	}
}

func shortName(s string) string {
	switch s {
	case "car, freeway":
		return "freeway"
	case "car, inter-urban":
		return "interurban"
	case "car, city traffic":
		return "city"
	case "walking person":
		return "walking"
	default:
		return s
	}
}

// BenchmarkFig3 regenerates the Fig. 3 artifact: the number of linear
// prediction updates on a 10-minute freeway stretch at u_s = 100 m.
func BenchmarkFig3(b *testing.B) {
	benchTrail(b, "linear-pred")
}

// BenchmarkFig6 regenerates the Fig. 6 artifact: map-based updates on the
// same stretch (the paper shows 9 vs 3).
func BenchmarkFig6(b *testing.B) {
	benchTrail(b, "map-based")
}

func benchTrail(b *testing.B, protocol string) {
	var count int
	for i := 0; i < b.N; i++ {
		trail, err := experiments.RunTrail(experiments.Freeway, benchOpts, protocol, 600, 100)
		if err != nil {
			b.Fatal(err)
		}
		count = trail.Count
	}
	b.ReportMetric(float64(count), "updates")
}

// benchFigure runs one Fig. 7-10 sweep and reports updates/h at u_s=100
// for the three protocols plus the relative percentages.
func benchFigure(b *testing.B, kind experiments.Kind) {
	var fr *experiments.FigureResult
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = experiments.RunFigure(kind, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range fr.Rows {
		if row.US == 100 {
			b.ReportMetric(row.UpdatesPerH[0], "updh-distance")
			b.ReportMetric(row.UpdatesPerH[1], "updh-linear")
			b.ReportMetric(row.UpdatesPerH[2], "updh-map")
			b.ReportMetric(row.Relative[1], "pct-linear")
			b.ReportMetric(row.Relative[2], "pct-map")
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (freeway sweep).
func BenchmarkFig7(b *testing.B) { benchFigure(b, experiments.Freeway) }

// BenchmarkFig8 regenerates Fig. 8 (inter-urban sweep).
func BenchmarkFig8(b *testing.B) { benchFigure(b, experiments.InterUrban) }

// BenchmarkFig9 regenerates Fig. 9 (city sweep).
func BenchmarkFig9(b *testing.B) { benchFigure(b, experiments.City) }

// BenchmarkFig10 regenerates Fig. 10 (walking sweep).
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Walking) }

// BenchmarkAblationTurnProb regenerates ablation A-1 (turn choosers:
// smallest-angle vs learned probabilities vs main-road).
func BenchmarkAblationTurnProb(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationTurnProb(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range ar.Order {
		b.ReportMetric(ar.Series[name][1], "updh-"+name) // u_s = 100 point
	}
}

// BenchmarkAblationKnownRoute regenerates ablation A-2 (known-route DR as
// the optimal map-based upper bound).
func BenchmarkAblationKnownRoute(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationKnownRoute(experiments.Freeway, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range ar.Order {
		b.ReportMetric(ar.Series[name][1], "updh-"+name)
	}
}

// BenchmarkAblationWolfson regenerates ablation A-3 (sdr/adr/dtdr).
func BenchmarkAblationWolfson(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationWolfson(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range ar.Order {
		b.ReportMetric(ar.Series[name][0], "updh-"+name)
	}
}

// BenchmarkAblationMatchRadius regenerates ablation A-4 (u_m sweep).
func BenchmarkAblationMatchRadius(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationMatchRadius(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, um := range ar.Values {
		_ = um
		if i == 2 { // u_m = 25, the default
			b.ReportMetric(ar.Series["map-based"][i], "updh-um25")
		}
	}
}

// BenchmarkAblationSightings regenerates ablation A-5 (n-sighting window).
func BenchmarkAblationSightings(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationSightings(experiments.Freeway, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ar.Series["linear-pred"][0], "updh-n2")
	b.ReportMetric(ar.Series["linear-pred"][3], "updh-n16")
}

// BenchmarkAblationPredictors regenerates ablation A-6 (predictor family:
// linear / CTRV / map-based / speed-capped map-based).
func BenchmarkAblationPredictors(b *testing.B) {
	var ar *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ar, err = experiments.AblationPredictors(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range ar.Order {
		b.ReportMetric(ar.Series[name][1], "updh-"+name)
	}
}

// BenchmarkHistoryLearning regenerates the §2 history-based DR
// convergence experiment (E-H2).
func BenchmarkHistoryLearning(b *testing.B) {
	var hr *experiments.HistoryLearningResult
	for i := 0; i < b.N; i++ {
		var err error
		hr, err = experiments.RunHistoryLearning(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hr.UpdatesPerH[len(hr.UpdatesPerH)-1], "updh-learned")
	b.ReportMetric(hr.TrueMap, "updh-truemap")
}

// BenchmarkDisconnection regenerates the dtdr link-outage experiment.
func BenchmarkDisconnection(b *testing.B) {
	var dr *experiments.DisconnectionResult
	for i := 0; i < b.N; i++ {
		var err error
		dr, err = experiments.RunDisconnection(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range dr.Policies {
		b.ReportMetric(dr.MaxErr[i], "maxerr-"+p)
	}
}

// BenchmarkFleetHarness measures the fleet simulation harness feeding
// the sharded location service through its batched ingestion path, at 1
// worker vs the full core count. Each op is a complete run of 128
// linear-prediction objects over 400 samples.
func BenchmarkFleetHarness(b *testing.B) {
	const (
		nObjs    = 128
		nSamples = 400
	)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers-%d", workers)
		if workers == 0 {
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				svc := NewShardedLocationService(16)
				objs := make([]FleetObject, nObjs)
				for j := range objs {
					id := ObjectID(fmt.Sprintf("obj-%03d", j))
					if err := svc.Register(id, LinearPredictor{}); err != nil {
						b.Fatal(err)
					}
					src, err := NewSource(SourceConfig{US: 100, UP: 5, Sightings: 2}, LinearPredictor{})
					if err != nil {
						b.Fatal(err)
					}
					tr := &Trace{}
					for k := 0; k < nSamples; k++ {
						// Zig-zag motion so the deviation trigger fires.
						x := 10 * float64(k)
						y := 100*float64(j) + 40*float64(k%20)
						tr.Samples = append(tr.Samples, Sample{T: float64(k), Pos: Pt(x, y)})
					}
					objs[j] = FleetObject{ID: id, Truth: tr, Source: src}
				}
				fleet := Fleet{Service: svc, Objects: objs, Workers: workers}
				res, err := fleet.Run()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Samples), "samples/run")
				}
			}
		})
	}
}

// --- micro benchmarks of the hot protocol paths -------------------------

// BenchmarkMapPredictor measures one map-based prediction evaluation.
func BenchmarkMapPredictor(b *testing.B) {
	sc, err := experiments.Cached(experiments.Freeway, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	pred := core.NewMapPredictor(sc.Graph)
	d := sc.Route.At(0)
	rep := core.Report{T: 0, V: 28, Link: d, Offset: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Predict(rep, float64(30+i%120))
	}
}

// BenchmarkSourceOnSample measures the full per-sample source pipeline
// (map matching + prediction + trigger) of the map-based protocol.
func BenchmarkSourceOnSample(b *testing.B) {
	sc, err := experiments.Cached(experiments.Freeway, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	src, err := core.NewMapSource(core.SourceConfig{US: 100, UP: 5, Sightings: 2}, core.NewMapPredictor(sc.Graph))
	if err != nil {
		b.Fatal(err)
	}
	samples := sc.Sensor.Samples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		src.OnSample(trace.Sample{T: float64(i), Pos: s.Pos})
	}
}

// BenchmarkReportCodec measures update message encode+decode.
func BenchmarkReportCodec(b *testing.B) {
	rep := core.Report{
		Seq: 1, T: 123.5, Pos: geo.Pt(1000, 2000), V: 28, Heading: 1.2,
		Link: roadmap.Dir{Link: 42, Forward: true}, Offset: 120,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := rep.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var out core.Report
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestLink measures a spatial-index nearest-link query on the
// city network (the map matcher's acquisition path).
func BenchmarkNearestLink(b *testing.B) {
	sc, err := experiments.Cached(experiments.City, benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	bounds := sc.Graph.Bounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := float64(i%1000) / 1000
		p := geo.Pt(
			bounds.Min.X+f*bounds.Width(),
			bounds.Min.Y+(1-f)*bounds.Height(),
		)
		sc.Graph.NearestLink(p, 50)
	}
}
