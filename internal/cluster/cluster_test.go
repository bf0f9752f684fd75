package cluster

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/sim"
	"mapdr/internal/wire"
)

// nodeStats is the coordinator's GET /stats view: its live members' node
// stats, summed from the merged metrics snapshot.
func nodeStats(c *Coordinator) locserv.NodeStats {
	snap, _ := c.ObsSnapshot()
	return locserv.NodeStatsOf(snap)
}

// linearNode returns an in-process member whose factory mints linear
// predictors — cheap enough for protocol-level tests without a road
// network.
func linearNode(name string, shards int) (*Member, *locserv.NodeService) {
	node := locserv.NewNodeService(locserv.NewSharded(shards),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	return NewLocalMember(name, node), node
}

// seedCluster registers n objects through the coordinator and delivers
// one report each.
func seedCluster(t *testing.T, coord *Coordinator, n int) []wire.Record {
	t.Helper()
	recs := make([]wire.Record, 0, n)
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if err := coord.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, wire.Record{
			ID: string(id),
			Update: core.Update{
				Reason: core.ReasonInit,
				Report: core.Report{
					Seq: 1, T: 0,
					Pos:     geo.Pt(float64(i%50)*20, float64(i/50)*20),
					V:       float64(i%13) + 1,
					Heading: float64(i%6) / 2,
				},
			},
		})
	}
	if err := coord.Send(0, recs); err != nil {
		t.Fatal(err)
	}
	if err := coord.Flush(0); err != nil {
		t.Fatal(err)
	}
	return recs
}

// snapshotQueries captures reference answers for a sweep of queries.
type querySnapshot struct {
	nearest [][]locserv.ObjectPos
	within  [][]locserv.ObjectPos
	pos     []geo.Point
	posOK   []bool
}

func snapshot(q locserv.Querier, n int, t float64) *querySnapshot {
	s := &querySnapshot{}
	for _, p := range []geo.Point{geo.Pt(0, 0), geo.Pt(500, 300), geo.Pt(999, 999)} {
		s.nearest = append(s.nearest, q.Nearest(p, 10, t))
	}
	for _, r := range []geo.Rect{
		{Min: geo.Pt(0, 0), Max: geo.Pt(200, 200)},
		{Min: geo.Pt(-1e5, -1e5), Max: geo.Pt(1e5, 1e5)},
	} {
		s.within = append(s.within, q.Within(r, t))
	}
	for i := 0; i < n; i++ {
		p, ok := q.Position(locserv.ObjectID(fmt.Sprintf("obj-%04d", i)), t)
		s.pos = append(s.pos, p)
		s.posOK = append(s.posOK, ok)
	}
	return s
}

func assertSnapshotEqual(t *testing.T, label string, want, got *querySnapshot) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: query answers changed", label)
	}
}

// TestClusterAddNodeHandoff proves that joining a member moves exactly
// the reassigned partitions — replicas keep their reports and sequence
// numbers, and every query answer is bit-identical before and after.
func TestClusterAddNodeHandoff(t *testing.T) {
	const n = 200
	m1, _ := linearNode("n1", 4)
	m2, _ := linearNode("n2", 4)
	m3, _ := linearNode("n3", 4)
	coord, err := NewReplicated(0, 1, m1, m2, m3)
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(t, coord, n)
	before := snapshot(coord, n, 42.5)
	applied := nodeStats(coord).UpdatesApplied

	m4, node4 := linearNode("n4", 4)
	if err := coord.AddNode(m4); err != nil {
		t.Fatal(err)
	}
	if got := node4.Service().Len(); got == 0 {
		t.Fatal("no objects handed off to the new member")
	}
	total := 0
	for _, ms := range coord.MemberStats() {
		total += ms.Node.Objects
	}
	if total != n {
		t.Fatalf("%d objects after handoff, want %d", total, n)
	}
	// Ownership and data agree: every object answers from its ring owner.
	assertSnapshotEqual(t, "after AddNode", before, snapshot(coord, n, 42.5))
	// Handoff re-applies moved reports; their Seq is preserved, so a
	// replayed original update must be rejected as stale, not double
	// counted.
	if nowApplied := nodeStats(coord).UpdatesApplied; nowApplied < applied {
		t.Fatalf("applied went backwards: %d -> %d", applied, nowApplied)
	}

	// And the reverse: draining a member keeps answers identical too.
	if err := coord.RemoveNode("n2"); err != nil {
		t.Fatal(err)
	}
	for _, ms := range coord.MemberStats() {
		if ms.Name == "n2" {
			t.Fatal("removed member still listed")
		}
	}
	total = 0
	for _, ms := range coord.MemberStats() {
		total += ms.Node.Objects
	}
	if total != n {
		t.Fatalf("%d objects after removal, want %d", total, n)
	}
	assertSnapshotEqual(t, "after RemoveNode", before, snapshot(coord, n, 42.5))

	if err := coord.RemoveNode("ghost"); err == nil {
		t.Error("removing an unknown member succeeded")
	}
	if err := coord.AddNode(m4); err == nil {
		t.Error("re-adding an existing member succeeded")
	}
}

// TestClusterStaleUpdateGatingSurvivesHandoff delivers a stale update
// for a moved object and checks the new owner rejects it — the
// protocol's Seq gating must survive the move.
func TestClusterStaleUpdateGatingSurvivesHandoff(t *testing.T) {
	m1, _ := linearNode("n1", 2)
	m2, _ := linearNode("n2", 2)
	coord, err := NewReplicated(0, 1, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	recs := seedCluster(t, coord, 50)
	// Advance everything to Seq 3.
	for i := range recs {
		recs[i].Update.Report.Seq = 3
		recs[i].Update.Report.T = 10
	}
	if err := coord.Send(10, recs); err != nil {
		t.Fatal(err)
	}
	applied := nodeStats(coord).UpdatesApplied
	if applied != 100 {
		t.Fatalf("applied %d, want 100", applied)
	}

	m3, _ := linearNode("n3", 2)
	if err := coord.AddNode(m3); err != nil {
		t.Fatal(err)
	}
	// Handoff re-applies the moved reports on the new owner (the old
	// owner's counter keeps its history), so re-baseline before the
	// stale replay.
	applied = nodeStats(coord).UpdatesApplied
	// Replay the Seq-1 originals: every replica must reject them.
	stale := make([]wire.Record, len(recs))
	copy(stale, recs)
	for i := range stale {
		stale[i].Update.Report.Seq = 1
		stale[i].Update.Report.T = 0
	}
	if err := coord.Send(11, stale); err != nil {
		t.Fatal(err)
	}
	if got := nodeStats(coord).UpdatesApplied; got != applied {
		t.Fatalf("stale replay advanced applied: %d -> %d", applied, got)
	}
}

// TestClusterHTTP drives a real networked cluster: node servers on
// loopback TCP, a coordinator over HTTP members, updates and queries
// sent as binary frames on each member's stream (GET /member) —
// answers must match an identically-fed single store.
func TestClusterHTTP(t *testing.T) {
	const n = 80
	ref := locserv.NewSharded(8)
	var servers []*httptest.Server
	var members []*Member
	for i := 0; i < 3; i++ {
		node := locserv.NewNodeService(locserv.NewSharded(4),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
		ts := httptest.NewServer(node.Handler())
		servers = append(servers, ts)
		members = append(members, NewHTTPMember(fmt.Sprintf("n%d", i), ts.URL, ts.Client()))
	}
	defer func() {
		for _, ts := range servers {
			ts.Close()
		}
	}()
	coord, err := NewReplicated(0, 1, members...)
	if err != nil {
		t.Fatal(err)
	}

	recs := make([]wire.Record, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		if err := ref.Register(locserv.ObjectID(id), core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		// The cluster side registers over the wire (OpRegister); the
		// node's factory mints the same predictor type.
		if err := coord.Register(locserv.ObjectID(id), nil); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, wire.Record{
			ID: id,
			Update: core.Update{
				Reason: core.ReasonInit,
				Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i)*7, float64(i%9)*11), V: 5, Heading: 1},
			},
		})
	}
	// Feed the reference through the codec too (HTTP rounds V/heading to
	// f32), so both sides hold bit-identical reports.
	frame, err := wire.EncodeFrame(recs)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := wire.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.DeliverRecords(decoded, nil); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(0, recs); err != nil {
		t.Fatal(err)
	}

	for _, tt := range []float64{0, 17.5, 60} {
		wantN := ref.Nearest(geo.Pt(200, 40), 7, tt)
		gotN := coord.Nearest(geo.Pt(200, 40), 7, tt)
		if !reflect.DeepEqual(wantN, gotN) {
			t.Fatalf("Nearest@%v:\nref     %v\ncluster %v", tt, wantN, gotN)
		}
		r := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(400, 200)}
		if !reflect.DeepEqual(ref.Within(r, tt), coord.Within(r, tt)) {
			t.Fatalf("Within@%v differs", tt)
		}
		for i := 0; i < n; i += 13 {
			id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
			pA, okA := ref.Position(id, tt)
			pB, okB := coord.Position(id, tt)
			if okA != okB || pA != pB {
				t.Fatalf("Position(%s)@%v: ref (%v,%v) cluster (%v,%v)", id, tt, pA, okA, pB, okB)
			}
		}
	}

	st := nodeStats(coord)
	if st.Objects != n || st.UpdatesApplied != n {
		t.Fatalf("cluster stats %+v, want %d objects/applied", st, n)
	}
	if tr := coord.Stats(); tr.Delivered != int64(n) || tr.Frames == 0 {
		t.Fatalf("transport stats %+v", tr)
	}
}

// TestCoordinatorAsFleetTransport runs the fleet simulation over a
// lossless two-node cluster purely through the Transport/Querier
// surfaces (no *Service at all) — the integration sim.Fleet relies on.
func TestCoordinatorAsFleetTransport(t *testing.T) {
	m1, _ := linearNode("a", 2)
	m2, _ := linearNode("b", 2)
	coord, err := NewReplicated(0, 1, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&sim.Fleet{Transport: coord, Query: coord}).Run(); err == nil {
		t.Error("fleet with no objects should fail")
	}
	if _, err := (&sim.Fleet{Query: coord}).Run(); err == nil {
		t.Error("fleet with query but no transport/service should fail")
	}
}

func TestCoordinatorErrors(t *testing.T) {
	if _, err := NewReplicated(0, 1); err == nil {
		t.Error("empty cluster accepted")
	}
	m1, _ := linearNode("a", 2)
	dup, _ := linearNode("a", 2)
	if _, err := NewReplicated(0, 1, m1, dup); err == nil {
		t.Error("duplicate member accepted")
	}
	m1b, _ := linearNode("a", 2)
	m2, _ := linearNode("b", 2)
	coord, err := NewReplicated(0, 1, m1b, m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(0, []wire.Record{{ID: ""}}); err == nil {
		t.Error("record without id accepted")
	}
	if err := coord.RemoveNode("b"); err != nil {
		t.Fatal(err)
	}
	if err := coord.RemoveNode("a"); err == nil {
		t.Error("removing the last member succeeded")
	}
}

// TestClusterAddNodeRollsBackOnFailure joins a broken member (no
// predictor factory: every import is rejected) and checks the cluster
// is left exactly as it was — ring, membership, data and query answers
// — instead of routing keys at a node that holds nothing.
func TestClusterAddNodeRollsBackOnFailure(t *testing.T) {
	const n = 120
	m1, _ := linearNode("n1", 4)
	m2, _ := linearNode("n2", 4)
	coord, err := NewReplicated(0, 1, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(t, coord, n)
	before := snapshot(coord, n, 30)

	broken := NewLocalMember("n3", locserv.NewNodeService(locserv.NewSharded(2), nil))
	if err := coord.AddNode(broken); err == nil {
		t.Fatal("joining a factory-less member must fail the handoff")
	}
	if nodes := coord.Nodes(); len(nodes) != 2 {
		t.Fatalf("failed join left membership %v", nodes)
	}
	total := 0
	for _, ms := range coord.MemberStats() {
		total += ms.Node.Objects
	}
	if total != n {
		t.Fatalf("failed join lost objects: %d of %d", total, n)
	}
	assertSnapshotEqual(t, "after failed AddNode", before, snapshot(coord, n, 30))

	// The cluster is still healthy: a working member joins fine.
	good, _ := linearNode("n3", 2)
	if err := coord.AddNode(good); err != nil {
		t.Fatal(err)
	}
	assertSnapshotEqual(t, "after recovered AddNode", before, snapshot(coord, n, 30))
}
