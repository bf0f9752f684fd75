package locserv

// End-to-end ingest benchmarks: protocol updates encoded as wire
// frames, POSTed over real loopback HTTP into the service's /updates
// endpoint, applied through the sharded batched path, with a k-NN
// query fan-out riding along — the full networked source->server->query
// pipeline. BenchmarkIngestHTTP is a PR gate: it fails itself below
// 100k updates/s (reported as updates/s) on any run of more than one op.
//
//	go test -bench=Ingest -benchtime=1s ./internal/locserv

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/wire"
)

const (
	ingestBenchObjects = 5000
	ingestBenchBatch   = 1024
)

// ingestBenchSetup registers the fleet and pre-generates one batch of
// records per object window; per-iteration the caller advances Seq so
// every delivery really replaces the replica state.
func ingestBenchSetup(b *testing.B, shards int) (*Service, [][]wire.Record) {
	b.Helper()
	s := NewSharded(shards)
	for i := 0; i < ingestBenchObjects; i++ {
		if err := s.Register(ObjectID(fmt.Sprintf("veh-%05d", i)), core.LinearPredictor{}); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]wire.Record
	for start := 0; start < ingestBenchObjects; start += ingestBenchBatch {
		var batch []wire.Record
		for i := start; i < start+ingestBenchBatch && i < ingestBenchObjects; i++ {
			batch = append(batch, wire.Record{
				ID: fmt.Sprintf("veh-%05d", i),
				Update: core.Update{
					Reason: core.ReasonDeviation,
					Report: core.Report{
						Seq: 0, T: 0,
						Pos:     geo.Pt(float64(i%100)*100, float64(i/100)*100),
						V:       13,
						Heading: float64(i%628) / 100,
					},
				},
			})
		}
		batches = append(batches, batch)
	}
	return s, batches
}

// advanceBatch stamps round-specific sequence numbers and timestamps so
// the replicas accept every record (stale-update dedup would otherwise
// turn reruns into no-ops).
func advanceBatch(batch []wire.Record, round uint32) {
	for i := range batch {
		batch[i].Update.Report.Seq = round
		batch[i].Update.Report.T = float64(round)
	}
}

// BenchmarkIngestHTTP measures the full pipeline: encode frame -> POST
// over loopback TCP -> decode -> DeliverRecords -> Nearest query fan-out.
// One op is one batch of ingestBenchBatch updates plus one 10-NN query.
func BenchmarkIngestHTTP(b *testing.B) {
	s, batches := ingestBenchSetup(b, DefaultShards)
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()
	cl := wire.NewClient(ts.URL, ts.Client())

	var records int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch := batches[n%len(batches)]
		advanceBatch(batch, uint32(n)+1)
		if err := cl.Send(float64(n), batch); err != nil {
			b.Fatal(err)
		}
		records += int64(len(batch))
		if hits := s.Nearest(geo.Pt(5000, 5000), 10, float64(n)+1); len(hits) == 0 {
			b.Fatal("query fan-out returned nothing")
		}
	}
	b.StopTimer()
	if s.UpdatesApplied() == 0 {
		b.Fatal("nothing applied")
	}
	rate := float64(records) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "updates/s")
	b.ReportMetric(float64(cl.Stats().FrameBytes)/float64(records), "wirebytes/update")
	// The floor judges a timed run, not Go's one-op calibration probe,
	// which times a single cold batch.
	if b.N > 1 && rate < 100e3 {
		b.Fatalf("%.0f updates/s, want >= 100k", rate)
	}
}

// BenchmarkIngestLoopback is the same pipeline minus HTTP: frames
// bypassed, records delivered in-process. The delta to IngestHTTP is
// the cost of the network hop and codec.
func BenchmarkIngestLoopback(b *testing.B) {
	s, batches := ingestBenchSetup(b, DefaultShards)
	lb := wire.NewLoopback(s.Sink(nil))

	var records int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch := batches[n%len(batches)]
		advanceBatch(batch, uint32(n)+1)
		if err := lb.Send(float64(n), batch); err != nil {
			b.Fatal(err)
		}
		records += int64(len(batch))
		if hits := s.Nearest(geo.Pt(5000, 5000), 10, float64(n)+1); len(hits) == 0 {
			b.Fatal("query fan-out returned nothing")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "updates/s")
}
