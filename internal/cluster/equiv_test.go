package cluster

import (
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// equivFleetSpec is the shared scenario of the equivalence proofs: a
// small city fleet whose sources/traces are deterministic in the seed,
// so two independently generated copies produce bit-identical update
// streams.
func equivFleetSpec(n int) sim.FleetSpec {
	return sim.FleetSpec{
		N: n, Seed: 7, RouteLen: 900, Workers: 2, IDFormat: "car-%03d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}
}

func equivGraph(t *testing.T) *roadmap.Graph {
	t.Helper()
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	return cor.Graph
}

// memberKind is one member constructor the equivalence proof runs
// over. codec marks members whose updates cross the binary update codec
// (speed and heading rounded to f32), so their reference store is fed
// through the same codec.
type memberKind struct {
	name  string
	codec bool
	build func(t *testing.T, name string, node *locserv.NodeService) *Member
}

var memberKinds = []memberKind{
	// The wire loopback: every query, registration and handoff
	// round-trips through the full binary query codec in process, ingest
	// through the loopback update transport — wire-level behaviour with
	// deterministic, synchronous delivery.
	{"loopback", false, func(_ *testing.T, name string, node *locserv.NodeService) *Member {
		return NewLoopbackMember(name, node)
	}},
	// The member stream to a node served over real HTTP: the networked
	// cluster's path, queries and update frames multiplexed on one
	// upgraded connection per member.
	{"stream", true, func(t *testing.T, name string, node *locserv.NodeService) *Member {
		ts := httptest.NewServer(node.Handler())
		t.Cleanup(ts.Close)
		m := NewHTTPMember(name, ts.URL, nil)
		t.Cleanup(func() { m.Ingest.(*wire.Stream).Close() })
		return m
	}},
}

// buildCluster returns a coordinator over n members of the given kind
// replicating every key range rf-fold.
func buildCluster(t *testing.T, kind memberKind, g *roadmap.Graph, n, shardsPerNode, rf int) *Coordinator {
	t.Helper()
	members := make([]*Member, n)
	for i := range members {
		node := locserv.NewNodeService(locserv.NewSharded(shardsPerNode),
			func(locserv.ObjectID) core.Predictor { return core.NewMapPredictor(g) })
		members[i] = kind.build(t, fmt.Sprintf("node-%d", i), node)
	}
	coord, err := NewReplicated(0, rf, members...)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// codecSink hands sink every batch after a round trip through the update
// frame codec — what a member stream delivers to its node.
func codecSink(sink wire.Sink) wire.Sink {
	return wire.SinkFunc(func(batch []wire.Record) error {
		frame, err := wire.EncodeFrame(batch)
		if err != nil {
			return err
		}
		recs, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return err
		}
		return sink.Deliver(recs)
	})
}

// TestClusterEquivalence is the scatter-gather correctness proof: a
// 4-node cluster (updates routed per partition, queries through the
// binary query protocol, answers merged at the coordinator) returns
// bit-identical Nearest/Within/Position results and identical fleet
// error statistics to a single-process sharded store driven by the same
// simulation — unreplicated and with every key range on R=2 members
// (ingest fanned out to both, reads merged on freshest Seq), over every
// member kind.
func TestClusterEquivalence(t *testing.T) {
	g := equivGraph(t)
	spec := equivFleetSpec(6)

	// References: the single-process sharded store, fed directly and
	// through the update codec.
	type reference struct {
		svc *locserv.Service
		res *sim.FleetResult
	}
	refs := make(map[bool]reference)
	for _, codec := range []bool{false, true} {
		svc := locserv.NewSharded(16)
		objs, err := sim.GenerateFleet(g, svc, spec)
		if err != nil {
			t.Fatal(err)
		}
		fleet := &sim.Fleet{Service: svc, Objects: objs, Workers: spec.Workers}
		if codec {
			fleet.Transport = wire.NewLoopback(codecSink(svc.Sink(nil)))
		}
		res, err := fleet.Run()
		if err != nil {
			t.Fatal(err)
		}
		refs[codec] = reference{svc, res}
	}

	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", rf), func(t *testing.T) {
			for _, kind := range memberKinds {
				t.Run(kind.name, func(t *testing.T) {
					ref := refs[kind.codec]
					resA := ref.res
					// Cluster: same simulation, updates and queries through
					// the coordinator.
					coord := buildCluster(t, kind, g, 4, 4, rf)
					objsB, err := sim.GenerateFleet(g, coord, spec)
					if err != nil {
						t.Fatal(err)
					}
					resB, err := (&sim.Fleet{
						Objects: objsB, Workers: spec.Workers,
						Transport: coord, Query: coord,
					}).Run()
					if err != nil {
						t.Fatal(err)
					}

					// Identical fleet error statistics: same samples, same
					// per-object update counts, bit-identical mean server
					// error.
					if resA.Samples != resB.Samples {
						t.Fatalf("samples: single %d, cluster %d", resA.Samples, resB.Samples)
					}
					if !reflect.DeepEqual(resA.Updates, resB.Updates) {
						t.Fatalf("update counts differ:\nsingle  %v\ncluster %v", resA.Updates, resB.Updates)
					}
					if resA.MeanErr != resB.MeanErr {
						t.Fatalf("mean error: single %v, cluster %v (diff %g)",
							resA.MeanErr, resB.MeanErr, math.Abs(resA.MeanErr-resB.MeanErr))
					}
					// The transport really replicates: every record reaches
					// rf members.
					wantSent := resA.Wire.Sent * int64(rf)
					if resB.Wire.Sent != wantSent || resB.Wire.Delivered != wantSent {
						t.Fatalf("wire stats: cluster %+v, want sent=delivered=%d (R=%d)", resB.Wire, wantSent, rf)
					}

					// The cluster really is partitioned: no node holds
					// everything, and the copies sum to R per object.
					nodeObjs := 0
					for _, ms := range coord.MemberStats() {
						if ms.Node.Objects == spec.N && rf < 4 {
							t.Errorf("member %s holds the whole fleet — not partitioned", ms.Name)
						}
						nodeObjs += ms.Node.Objects
					}
					if nodeObjs != spec.N*rf {
						t.Fatalf("nodes hold %d object copies in total, want %d", nodeObjs, spec.N*rf)
					}

					assertQueriesEqual(t, ref.svc, coord, objsB)
					if got := coord.QueryErrors(); got != 0 {
						t.Fatalf("%d query errors on a healthy cluster", got)
					}
				})
			}
		})
	}
}

// assertQueriesEqual compares the full query surface bit-for-bit at a
// sweep of times, query points and result bounds.
func assertQueriesEqual(t *testing.T, svc *locserv.Service, coord *Coordinator, objs []sim.FleetObject) {
	t.Helper()
	tEnd := 0.0
	for i := range objs {
		if last := objs[i].Truth.Samples[objs[i].Truth.Len()-1].T; last > tEnd {
			tEnd = last
		}
	}
	times := []float64{0, 1, tEnd * 0.25, tEnd * 0.5, tEnd * 0.75, tEnd, tEnd + 30}
	points := []geo.Point{geo.Pt(0, 0), geo.Pt(2500, 2500), geo.Pt(5000, 5000), geo.Pt(-1000, 8000)}

	for _, tt := range times {
		// Position: every object, routed to its owner.
		for i := range objs {
			pA, okA := svc.Position(objs[i].ID, tt)
			pB, okB := coord.Position(objs[i].ID, tt)
			if okA != okB || pA != pB {
				t.Fatalf("Position(%s, %v): single (%v,%v) cluster (%v,%v)",
					objs[i].ID, tt, pA, okA, pB, okB)
			}
		}
		// Nearest: several k including over-ask, merged across nodes.
		for _, p := range points {
			for _, k := range []int{1, 3, len(objs), len(objs) + 5} {
				hitsA := svc.Nearest(p, k, tt)
				hitsB := coord.Nearest(p, k, tt)
				if !reflect.DeepEqual(hitsA, hitsB) {
					t.Fatalf("Nearest(%v, %d, %v):\nsingle  %v\ncluster %v", p, k, tt, hitsA, hitsB)
				}
			}
		}
		// Within: from tiny windows to the whole city.
		for _, r := range []geo.Rect{
			{Min: geo.Pt(4000, 4000), Max: geo.Pt(6000, 6000)},
			{Min: geo.Pt(0, 0), Max: geo.Pt(10000, 10000)},
			{Min: geo.Pt(-1e6, -1e6), Max: geo.Pt(1e6, 1e6)},
			{Min: geo.Pt(100, 100), Max: geo.Pt(101, 101)},
		} {
			hitsA := svc.Within(r, tt)
			hitsB := coord.Within(r, tt)
			if !reflect.DeepEqual(hitsA, hitsB) {
				t.Fatalf("Within(%v, %v):\nsingle  %v\ncluster %v", r, tt, hitsA, hitsB)
			}
		}
	}

	// Unknown object answers the same through both.
	if _, ok := coord.Position("ghost", 0); ok {
		t.Error("cluster answered a position for an unknown object")
	}
}
