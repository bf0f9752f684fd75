package cluster

// Cluster gate benchmark: the scatter-gather pipeline end to end —
// batches partitioned by the consistent-hash ring, routed to 4
// in-process nodes through the loopback update transports, with a
// 10-NN scatter-gather query merged at the coordinator riding along
// each batch. BenchmarkClusterIngestQuery is a PR gate: it fails itself
// below 100k updates/s sustained with the mixed query fan-out (reported
// as updates/s).
//
//	go test -bench=ClusterIngestQuery -benchtime=1s ./internal/cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

const (
	clusterBenchNodes   = 4
	clusterBenchObjects = 5000
	clusterBenchBatch   = 1024
)

// clusterBenchSetup builds a 4-node cluster replicating rf-fold,
// registers the fleet through the coordinator and pre-generates record
// batches; the caller advances Seq per round so every delivery replaces
// replica state.
func clusterBenchSetup(b *testing.B, rf int) (*Coordinator, [][]wire.Record) {
	b.Helper()
	members := make([]*Member, clusterBenchNodes)
	for i := range members {
		node := locserv.NewNodeService(locserv.NewSharded(locserv.DefaultShards/clusterBenchNodes),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
		members[i] = NewLocalMember(fmt.Sprintf("node-%d", i), node)
	}
	coord, err := NewReplicated(0, rf, members...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < clusterBenchObjects; i++ {
		if err := coord.Register(locserv.ObjectID(fmt.Sprintf("veh-%05d", i)), core.LinearPredictor{}); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]wire.Record
	for start := 0; start < clusterBenchObjects; start += clusterBenchBatch {
		var batch []wire.Record
		for i := start; i < start+clusterBenchBatch && i < clusterBenchObjects; i++ {
			batch = append(batch, wire.Record{
				ID: fmt.Sprintf("veh-%05d", i),
				Update: core.Update{
					Reason: core.ReasonDeviation,
					Report: core.Report{
						Pos:     geo.Pt(float64(i%100)*100, float64(i/100)*100),
						V:       13,
						Heading: float64(i%628) / 100,
					},
				},
			})
		}
		batches = append(batches, batch)
	}
	return coord, batches
}

// BenchmarkClusterIngestQuery measures routed ingest with a mixed
// 10-NN scatter-gather fan-out: one op is one 1024-record batch
// partitioned and delivered across the 4 nodes plus one k=10 Nearest
// merged at the coordinator.
func BenchmarkClusterIngestQuery(b *testing.B) {
	benchClusterIngestQuery(b, 1)
}

// BenchmarkReplicatedIngestQuery is the replication gate: the same
// pipeline with every key range on R=2 members — each batch is
// delivered twice (once per owner) and every query merges duplicate
// answers on freshest Seq — and the self-healing membership loops
// (heartbeat detector + reweight controller) ticking alongside, so the
// gate prices the whole production configuration. It fails itself
// below 100k logical updates/s.
func BenchmarkReplicatedIngestQuery(b *testing.B) {
	benchClusterIngestQuery(b, 2)
}

// BenchmarkFanInIngestQuery is the multi-coordinator smoke: two fan-in
// coordinators front the same 4 nodes at R=2, the batch stream is
// split across both fronts and each batch rides with a 10-NN
// scatter-gather on its front. Both coordinators tick their fan-in
// layer (gossip, lease fold) and the self-healing loops, so it prices
// the whole two-front configuration — but the fronts are driven one
// after the other, so it cannot show a second front buying throughput
// and states no bound (`make bench` runs it to see it still moves).
func BenchmarkFanInIngestQuery(b *testing.B) {
	nodes := make([]*locserv.NodeService, clusterBenchNodes)
	for i := range nodes {
		nodes[i] = locserv.NewNodeService(locserv.NewSharded(locserv.DefaultShards/clusterBenchNodes),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	}
	mk := func(id string) *Coordinator {
		members := make([]*Member, len(nodes))
		for i, node := range nodes {
			members[i] = NewLocalMember(fmt.Sprintf("node-%d", i), node)
		}
		coord, err := NewReplicated(0, 2, members...)
		if err != nil {
			b.Fatal(err)
		}
		coord.EnableFanIn(id, FanInConfig{LeaseFor: 30, GossipEvery: 2})
		coord.EnableSelfHeal(SelfHealConfig{
			HeartbeatEvery: 4, SuspectAfter: 2, RecoverAfter: 2,
			ReweightEvery: 64, ReweightRatio: 4, ReweightAfter: 3,
		})
		return coord
	}
	ca, cb := mk("co-a"), mk("co-b")
	if err := ca.AddPeerCoordinator("co-b", peerLoopback(cb)); err != nil {
		b.Fatal(err)
	}
	if err := cb.AddPeerCoordinator("co-a", peerLoopback(ca)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < clusterBenchObjects; i++ {
		if err := ca.Register(locserv.ObjectID(fmt.Sprintf("veh-%05d", i)), core.LinearPredictor{}); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]wire.Record
	for start := 0; start < clusterBenchObjects; start += clusterBenchBatch {
		var batch []wire.Record
		for i := start; i < start+clusterBenchBatch && i < clusterBenchObjects; i++ {
			batch = append(batch, wire.Record{
				ID: fmt.Sprintf("veh-%05d", i),
				Update: core.Update{
					Reason: core.ReasonDeviation,
					Report: core.Report{
						Pos:     geo.Pt(float64(i%100)*100, float64(i/100)*100),
						V:       13,
						Heading: float64(i%628) / 100,
					},
				},
			})
		}
		batches = append(batches, batch)
	}

	var records int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		co := ca
		if n%2 == 1 {
			co = cb
		}
		batch := batches[n%len(batches)]
		for i := range batch {
			batch[i].Update.Report.Seq = uint32(n) + 1
			batch[i].Update.Report.T = float64(n)
		}
		if err := co.Send(float64(n), batch); err != nil {
			b.Fatal(err)
		}
		co.Tick(float64(n))
		records += int64(len(batch))
		if hits := co.Nearest(geo.Pt(5000, 5000), 10, float64(n)+1); len(hits) == 0 {
			b.Fatal("scatter-gather returned nothing")
		}
	}
	b.StopTimer()
	if ca.NodeStats().UpdatesApplied == 0 {
		b.Fatal("nothing applied")
	}
	if qe := ca.QueryErrors() + cb.QueryErrors(); qe != 0 {
		b.Fatalf("%d query errors", qe)
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "updates/s")
}

func benchClusterIngestQuery(b *testing.B, rf int) {
	coord, batches := clusterBenchSetup(b, rf)
	if rf > 1 {
		coord.EnableSelfHeal(SelfHealConfig{
			HeartbeatEvery: 4, SuspectAfter: 2, RecoverAfter: 2,
			ReweightEvery: 64, ReweightRatio: 4, ReweightAfter: 3,
		})
	}

	var records int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		batch := batches[n%len(batches)]
		for i := range batch {
			batch[i].Update.Report.Seq = uint32(n) + 1
			batch[i].Update.Report.T = float64(n)
		}
		if err := coord.Send(float64(n), batch); err != nil {
			b.Fatal(err)
		}
		coord.Tick(float64(n))
		records += int64(len(batch))
		if hits := coord.Nearest(geo.Pt(5000, 5000), 10, float64(n)+1); len(hits) == 0 {
			b.Fatal("scatter-gather returned nothing")
		}
	}
	b.StopTimer()
	if coord.NodeStats().UpdatesApplied == 0 {
		b.Fatal("nothing applied")
	}
	if coord.QueryErrors() != 0 {
		b.Fatalf("%d query errors", coord.QueryErrors())
	}
	rate := float64(records) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "updates/s")
	if rate < 100e3 {
		b.Fatalf("%.0f updates/s, want >= 100k", rate)
	}
}

// BenchmarkMemberStream prices the coordinator→node hop itself: one op
// is one Position call and one 8-record delivery through a member
// stream to a node served on a real loopback socket. `make bench` runs
// it as a does-it-move check; it states no bound.
func BenchmarkMemberStream(b *testing.B) {
	node := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	m := NewHTTPMember("n0", ts.URL, nil)
	defer m.Ingest.(*wire.Stream).Close()
	batch := make([]wire.Record, 8)
	for i := range batch {
		batch[i] = wire.Record{ID: fmt.Sprintf("veh-%02d", i), Update: core.Update{
			Reason: core.ReasonDeviation,
			Report: core.Report{Pos: geo.Pt(float64(i)*100, 0), V: 13, Heading: 1},
		}}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range batch {
			batch[i].Update.Report.Seq = uint32(n) + 1
			batch[i].Update.Report.T = float64(n)
		}
		if applied, err := m.Node.Deliver(batch); err != nil || applied != len(batch) {
			b.Fatalf("deliver: applied %d, %v", applied, err)
		}
		if _, _, ok, err := m.Node.Position("veh-03", float64(n)+0.5); err != nil || !ok {
			b.Fatalf("position: %v %v", ok, err)
		}
	}
}
