package cluster

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// replicatedFixture is an R-replicated cluster of faulty linear-node
// members with direct access to each member's store and kill switch.
type replicatedFixture struct {
	coord     *Coordinator
	nodes     map[string]*locserv.NodeService
	injectors map[string]*FaultInjector
	names     []string
}

func newReplicatedFixture(t *testing.T, n, rf int) *replicatedFixture {
	t.Helper()
	f := &replicatedFixture{
		nodes:     make(map[string]*locserv.NodeService, n),
		injectors: make(map[string]*FaultInjector, n),
	}
	members := make([]*Member, n)
	for i := range members {
		name := fmt.Sprintf("n%d", i+1)
		node := locserv.NewNodeService(locserv.NewSharded(4),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
		m, inj := NewFaultyMember(name, node)
		members[i] = m
		f.nodes[name] = node
		f.injectors[name] = inj
		f.names = append(f.names, name)
	}
	coord, err := NewReplicated(0, rf, members...)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	return f
}

// record builds one linear-motion update record whose position encodes
// (index, seq) so stale answers are visibly displaced.
func repRecord(i int, seq uint32) wire.Record {
	return wire.Record{
		ID: fmt.Sprintf("obj-%04d", i),
		Update: core.Update{
			Reason: core.ReasonDeviation,
			Report: core.Report{
				Seq: seq, T: float64(seq),
				Pos: geo.Pt(float64(i)*10, float64(seq)*100),
				V:   0,
			},
		},
	}
}

func repBatch(n int, seq uint32) []wire.Record {
	recs := make([]wire.Record, n)
	for i := range recs {
		recs[i] = repRecord(i, seq)
	}
	return recs
}

// seedReplicated registers n objects and delivers their seq-1 reports.
func seedReplicated(t *testing.T, f *replicatedFixture, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.coord.Register(locserv.ObjectID(fmt.Sprintf("obj-%04d", i)), core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.coord.Send(0, repBatch(n, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedPlacement proves every object lands on exactly R
// distinct members — its ring preference list.
func TestReplicatedPlacement(t *testing.T) {
	const n, rf = 200, 2
	f := newReplicatedFixture(t, 4, rf)
	seedReplicated(t, f, n)
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		owners := f.coord.Owners(id)
		if len(owners) != rf {
			t.Fatalf("%s has %d owners %v, want %d", id, len(owners), owners, rf)
		}
		if owners[0] == owners[1] {
			t.Fatalf("%s replicated twice on %s", id, owners[0])
		}
		holders := 0
		for _, name := range f.names {
			if f.nodes[name].Service().Contains(id) {
				holders++
				if name != owners[0] && name != owners[1] {
					t.Fatalf("%s held by non-owner %s (owners %v)", id, name, owners)
				}
			}
		}
		if holders != rf {
			t.Fatalf("%s held by %d members, want %d", id, holders, rf)
		}
	}
}

// TestFailoverAvailability kills one member and checks the acceptance
// bar: once the breaker trips, every Position/Nearest/Within still
// answers without error, and no answer is staler than the victim's
// last acknowledged Seq (here: the survivors hold the newest round, so
// answers must carry it exactly).
func TestFailoverAvailability(t *testing.T) {
	const n, rf = 120, 2
	f := newReplicatedFixture(t, 4, rf)
	seedReplicated(t, f, n)

	victim := f.names[len(f.names)-1]
	f.injectors[victim].Fail()
	// The breaker needs breakerThreshold consecutive failures; ingest
	// rounds provide them (each Send to the dead member fails and is
	// hinted; the records stay durable on the surviving replica).
	var lastSeq uint32 = 1
	for seq := uint32(2); seq < 2+breakerThreshold+1; seq++ {
		if err := f.coord.Send(float64(seq), repBatch(n, seq)); err != nil {
			t.Fatalf("send with one dead replica must not fail: %v", err)
		}
		lastSeq = seq
	}
	for _, ms := range f.coord.MemberStats() {
		if ms.Name == victim {
			if !ms.Down {
				t.Fatal("victim breaker did not trip")
			}
			if ms.Hints.Buffered == 0 {
				t.Fatal("no hints buffered for the dead member")
			}
		}
	}

	// Every query family answers error-free, at the newest Seq.
	tq := float64(lastSeq)
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		p, ok, err := f.coord.PositionE(id, tq)
		if err != nil || !ok {
			t.Fatalf("PositionE(%s) with dead replica: ok=%v err=%v", id, ok, err)
		}
		want := geo.Pt(float64(i)*10, float64(lastSeq)*100)
		if p != want {
			t.Fatalf("PositionE(%s) = %v, want fresh %v", id, p, want)
		}
	}
	hits, err := f.coord.NearestE(geo.Pt(0, float64(lastSeq)*100), n, tq)
	if err != nil {
		t.Fatalf("NearestE with dead replica: %v", err)
	}
	if len(hits) != n {
		t.Fatalf("NearestE returned %d of %d objects", len(hits), n)
	}
	for _, h := range hits {
		if h.Seq != lastSeq {
			t.Fatalf("NearestE hit %s at seq %d, want %d", h.ID, h.Seq, lastSeq)
		}
	}
	within, err := f.coord.WithinE(geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1e6, 1e6)}, tq)
	if err != nil {
		t.Fatalf("WithinE with dead replica: %v", err)
	}
	if len(within) != n {
		t.Fatalf("WithinE returned %d of %d objects", len(within), n)
	}
	if f.coord.DegradedQueries() == 0 {
		t.Fatal("degraded-query counter did not move")
	}
}

// TestSendWithDownAndFailingMembers covers the mixed-failure ingest
// path under -race: one member's breaker already open (its partition
// hints synchronously on the routing goroutine) while another member
// fails its delivery concurrently — both paths mutate the shared
// failure bookkeeping.
func TestSendWithDownAndFailingMembers(t *testing.T) {
	const n, rf = 60, 2
	f := newReplicatedFixture(t, 4, rf)
	seedReplicated(t, f, n)

	if err := f.coord.MarkDown(f.names[0], true); err != nil {
		t.Fatal(err)
	}
	f.injectors[f.names[1]].Fail()
	// Two members out of four are gone; some records may lose both
	// owners (a legal error), but Send must never crash or drop the
	// surviving members' deliveries.
	for seq := uint32(2); seq <= 5; seq++ {
		err := f.coord.Send(float64(seq), repBatch(n, seq))
		_ = err // records with both owners dead are reported and hinted
	}
	for _, ms := range f.coord.MemberStats() {
		if ms.Name == f.names[0] || ms.Name == f.names[1] {
			if ms.Hints.Hinted == 0 {
				t.Fatalf("%s received no hints while unavailable", ms.Name)
			}
		}
	}
	// Both recover; the probe marks them up and drains their hints (the
	// injected-fault member's breaker tripped after the failed sends).
	f.injectors[f.names[1]].Recover()
	if got := f.coord.ProbeDown(); got != 2 {
		t.Fatalf("probe revived %d members, want 2", got)
	}
	if err := f.coord.Send(6, repBatch(n, 6)); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if _, ok, err := f.coord.PositionE(id, 6); err != nil || !ok {
			t.Fatalf("PositionE(%s) after recovery: ok=%v err=%v", id, ok, err)
		}
	}
}

// TestHintedHandoffDrain checks the recovery path: a revived member is
// probed back up, its hint buffer drains into it (coalesced to the
// freshest record per object), and its store converges to the newest
// sequence numbers.
func TestHintedHandoffDrain(t *testing.T) {
	const n, rf = 80, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)

	victim := f.names[0]
	f.injectors[victim].Fail()
	const lastSeq = 6
	for seq := uint32(2); seq <= lastSeq; seq++ {
		if err := f.coord.Send(float64(seq), repBatch(n, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.coord.ProbeDown(); got != 0 {
		t.Fatalf("probe revived %d members while still dead", got)
	}

	f.injectors[victim].Recover()
	if got := f.coord.ProbeDown(); got != 1 {
		t.Fatalf("probe revived %d members, want 1", got)
	}
	var vs MemberStats
	for _, ms := range f.coord.MemberStats() {
		if ms.Name == victim {
			vs = ms
		}
	}
	if vs.Down {
		t.Fatal("victim still marked down after successful probe")
	}
	if vs.Hints.Drained == 0 || vs.Hints.Buffered != 0 {
		t.Fatalf("hints did not drain: %+v", vs.Hints)
	}
	// Coalescing: the buffer held at most one record per object however
	// many rounds the outage spanned.
	if vs.Hints.Drained > int64(n) {
		t.Fatalf("drained %d records for %d objects — not coalesced", vs.Hints.Drained, n)
	}
	// The revived store converged to the newest seq for every replica it
	// owns.
	svc := f.nodes[victim].Service()
	checked := 0
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if !svc.Contains(id) {
			continue
		}
		checked++
		if _, seq, ok := svc.PositionSeq(id, lastSeq); !ok || seq != lastSeq {
			t.Fatalf("revived replica of %s at seq %d, want %d", id, seq, lastSeq)
		}
	}
	if checked == 0 {
		t.Fatal("victim owns no objects — fixture too small")
	}
}

// TestFailedDeliveryRoutedOnce: a partition whose delivery fails while
// its member is up is hinted, and counted as routed once — when its
// hints land — on MemberStats and on /metrics alike.
func TestFailedDeliveryRoutedOnce(t *testing.T) {
	const n = 50
	f := newReplicatedFixture(t, 2, 2)
	seedReplicated(t, f, n)
	stats := func() map[string]MemberStats {
		out := make(map[string]MemberStats)
		for _, ms := range f.coord.MemberStats() {
			out[ms.Name] = ms
		}
		return out
	}
	before := stats()

	f.injectors["n2"].FailDeliver()
	if err := f.coord.Send(2, repBatch(n, 2)); err != nil { // n1 took every record
		t.Fatal(err)
	}
	f.injectors["n2"].Recover()
	f.coord.ProbeDown() // n2 never tripped; this drains its hints
	after := stats()

	if h := after["n2"].Hints; h.Hinted-before["n2"].Hints.Hinted != n || h.Drained-before["n2"].Hints.Drained != n {
		t.Fatalf("n2 hints %+v, want %d hinted and drained", h, n)
	}
	srv := httptest.NewServer(Handler(f.coord))
	defer srv.Close()
	metrics := scrape(t, srv.URL)
	for _, name := range f.names {
		if d := after[name].Records - before[name].Records; d != n {
			t.Errorf("%s routed %d records for one %d-record batch, want %d", name, d, n, n)
		}
		series := `mapdr_member_records_routed_total{member="` + name + `"}`
		if got := metrics[series]; got != float64(after[name].Records) {
			t.Errorf("/metrics %s = %v, MemberStats %d", series, got, after[name].Records)
		}
	}
}

// TestReadRepair diverges one replica by hand and checks a query heals
// it: the merge answers from the freshest copy and pushes it back at
// the stale member in the background.
func TestReadRepair(t *testing.T) {
	const n, rf = 40, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)

	// Make one owner of obj-0000 fresher than the other, bypassing the
	// coordinator (what a missed delivery during a partial failure
	// leaves behind).
	id := locserv.ObjectID("obj-0000")
	owners := f.coord.Owners(id)
	fresh, stale := owners[0], owners[1]
	if _, err := f.nodes[fresh].Deliver([]wire.Record{repRecord(0, 5)}); err != nil {
		t.Fatal(err)
	}

	// Position answers from the freshest replica and schedules repair.
	p, ok, err := f.coord.PositionE(id, 5)
	if err != nil || !ok {
		t.Fatalf("PositionE: ok=%v err=%v", ok, err)
	}
	if want := geo.Pt(0, 500); p != want {
		t.Fatalf("PositionE answered %v, want the fresh %v", p, want)
	}
	f.coord.WaitRepairs()
	if _, seq, ok := f.nodes[stale].Service().PositionSeq(id, 5); !ok || seq != 5 {
		t.Fatalf("stale replica on %s at seq %d after repair, want 5", stale, seq)
	}
	if f.coord.Repairs() == 0 {
		t.Fatal("repair counter did not move")
	}

	// The scatter merges repair too: diverge another object and heal it
	// through Nearest.
	id2 := locserv.ObjectID("obj-0001")
	owners2 := f.coord.Owners(id2)
	if _, err := f.nodes[owners2[1]].Deliver([]wire.Record{repRecord(1, 7)}); err != nil {
		t.Fatal(err)
	}
	hits, err := f.coord.NearestE(geo.Pt(10, 700), n, 7)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.ID == id2 {
			found = true
			if h.Seq != 7 {
				t.Fatalf("Nearest answered %s at seq %d, want the fresh 7", id2, h.Seq)
			}
		}
	}
	if !found {
		t.Fatalf("%s missing from the merged answer", id2)
	}
	f.coord.WaitRepairs()
	if _, seq, ok := f.nodes[owners2[0]].Service().PositionSeq(id2, 7); !ok || seq != 7 {
		t.Fatalf("replica on %s at seq %d after scatter repair, want 7", owners2[0], seq)
	}
}

// TestReplicationChaos is the -race failure drill: concurrent queries
// run against an R=2 cluster while a member is killed mid-ingest and
// later revived. Every successful answer must stay within one Seq of
// the no-failure reference fed by the identical update stream, and
// after recovery (hint drain + read repair) the full query surface must
// be bit-identical to the reference.
func TestReplicationChaos(t *testing.T) {
	const (
		n      = 48
		rf     = 2
		rounds = 60
		kill   = 20
		revive = 40
	)
	f := newReplicatedFixture(t, 4, rf)
	ref := locserv.NewSharded(8)
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if err := f.coord.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		if err := ref.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	victim := f.names[1]

	var round atomic.Int64
	var queryErrs atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				r0 := round.Load()
				if r0 == 0 {
					continue
				}
				tq := float64(r0)
				minSeq := uint32(r0 - 1)
				switch rng.Intn(3) {
				case 0:
					id := locserv.ObjectID(fmt.Sprintf("obj-%04d", rng.Intn(n)))
					_, ok, err := f.coord.PositionE(id, tq)
					if err != nil {
						queryErrs.Add(1)
						continue
					}
					if !ok {
						t.Errorf("round %d: %s unanswered", r0, id)
						return
					}
				case 1:
					hits, err := f.coord.NearestE(geo.Pt(0, tq*100), n, tq)
					if err != nil {
						queryErrs.Add(1)
						continue
					}
					for _, h := range hits {
						if h.Seq < minSeq {
							t.Errorf("round %d: Nearest hit %s at seq %d — staler than one round", r0, h.ID, h.Seq)
							return
						}
					}
				case 2:
					hits, err := f.coord.WithinE(geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1e9, 1e9)}, tq)
					if err != nil {
						queryErrs.Add(1)
						continue
					}
					for _, h := range hits {
						if h.Seq < minSeq {
							t.Errorf("round %d: Within hit %s at seq %d — staler than one round", r0, h.ID, h.Seq)
							return
						}
					}
				}
			}
		}(w)
	}

	for r := 1; r <= rounds; r++ {
		if r == kill {
			f.injectors[victim].Fail()
		}
		if r == revive {
			f.injectors[victim].Recover()
			if f.coord.ProbeDown() == 0 {
				// The breaker may not have tripped if sends kept beating the
				// threshold; either way the member must be usable again.
				_ = f.coord.MarkDown(victim, false)
			}
		}
		batch := repBatch(n, uint32(r))
		if err := f.coord.Send(float64(r), batch); err != nil {
			t.Fatalf("round %d: send: %v", r, err)
		}
		if err := f.coord.Flush(float64(r)); err != nil {
			t.Fatalf("round %d: flush: %v", r, err)
		}
		if err := ref.ApplyBatch(toServiceBatch(batch)); err != nil {
			t.Fatalf("round %d: reference apply: %v", r, err)
		}
		round.Store(int64(r))
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Transport failures during the detection window are legal but must
	// be few: the breaker caps them at a handful of scatters.
	if e := queryErrs.Load(); e > 200 {
		t.Fatalf("%d errored queries — breaker did not contain the failure", e)
	}

	// Convergence: drain any leftover hints and repairs, then the whole
	// query surface is bit-identical to the no-failure reference.
	f.coord.ProbeDown()
	f.coord.WaitRepairs()
	tq := float64(rounds)
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		pA, okA := ref.Position(id, tq)
		pB, okB := f.coord.Position(id, tq)
		if okA != okB || pA != pB {
			t.Fatalf("Position(%s): ref (%v,%v) cluster (%v,%v)", id, pA, okA, pB, okB)
		}
	}
	if !reflect.DeepEqual(ref.Nearest(geo.Pt(0, tq*100), n, tq), f.coord.Nearest(geo.Pt(0, tq*100), n, tq)) {
		t.Fatal("Nearest diverged from the no-failure reference after recovery")
	}
	rect := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1e9, 1e9)}
	if !reflect.DeepEqual(ref.Within(rect, tq), f.coord.Within(rect, tq)) {
		t.Fatal("Within diverged from the no-failure reference after recovery")
	}
	// The victim's own store converged too (hints + repairs healed it).
	svc := f.nodes[victim].Service()
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if !svc.Contains(id) {
			continue
		}
		if _, seq, ok := svc.PositionSeq(id, tq); !ok || seq != rounds {
			t.Fatalf("victim replica of %s at seq %d, want %d", id, seq, rounds)
		}
	}
}

func toServiceBatch(recs []wire.Record) []locserv.Update {
	out := make([]locserv.Update, len(recs))
	for i := range recs {
		out[i] = locserv.Update{ID: locserv.ObjectID(recs[i].ID), Update: recs[i].Update}
	}
	return out
}

// TestReplicatedHandoff proves AddNode/RemoveNode move ranges between
// preference lists: answers stay bit-identical, and every object keeps
// exactly R distinct live holders afterwards.
func TestReplicatedHandoff(t *testing.T) {
	const n, rf = 150, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 7.5)

	holderCheck := func(stage string) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
			owners := f.coord.Owners(id)
			if len(owners) != rf {
				t.Fatalf("%s: %s has owners %v, want %d", stage, id, owners, rf)
			}
			for _, name := range owners {
				if !f.nodes[name].Service().Contains(id) {
					t.Fatalf("%s: owner %s does not hold %s", stage, name, id)
				}
			}
			for _, name := range f.names {
				held := f.nodes[name].Service().Contains(id)
				owner := name == owners[0] || name == owners[1]
				if held && !owner {
					t.Fatalf("%s: %s holds %s without owning it", stage, name, id)
				}
			}
		}
	}
	holderCheck("seeded")

	node4 := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	m4, inj4 := NewFaultyMember("n4", node4)
	if err := f.coord.AddNode(m4); err != nil {
		t.Fatal(err)
	}
	f.nodes["n4"] = node4
	f.injectors["n4"] = inj4
	f.names = append(f.names, "n4")
	if node4.Service().Len() == 0 {
		t.Fatal("no replicas handed off to the new member")
	}
	assertSnapshotEqual(t, "after replicated AddNode", before, snapshot(f.coord, n, 7.5))
	holderCheck("after AddNode")

	if err := f.coord.RemoveNode("n1"); err != nil {
		t.Fatal(err)
	}
	f.names = f.names[1:]
	delete(f.nodes, "n1")
	assertSnapshotEqual(t, "after replicated RemoveNode", before, snapshot(f.coord, n, 7.5))
	holderCheck("after RemoveNode")
}

// TestRemoveDeadNodeSurvives drains a crashed member out of an R=2
// cluster: the surviving replicas source every handoff, so no data is
// lost even though the leaving node cannot export anything.
func TestRemoveDeadNodeSurvives(t *testing.T) {
	const n, rf = 100, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 3)

	victim := f.names[2]
	f.injectors[victim].Fail()
	if err := f.coord.MarkDown(victim, true); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.RemoveNode(victim); err != nil {
		t.Fatalf("removing a dead member from an R=2 cluster must succeed: %v", err)
	}
	assertSnapshotEqual(t, "after removing dead member", before, snapshot(f.coord, n, 3))
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		owners := f.coord.Owners(id)
		if len(owners) != rf {
			t.Fatalf("%s owners %v after dead removal", id, owners)
		}
		for _, name := range owners {
			if name == victim {
				t.Fatalf("%s still routed at the removed member", id)
			}
			if !f.nodes[name].Service().Contains(id) {
				t.Fatalf("owner %s does not hold %s after dead removal", name, id)
			}
		}
	}
}

// TestReplicatedAddNodeRollsBack joins a broken member into an R=2
// cluster and checks the failed handoff leaves membership, data and
// answers untouched.
func TestReplicatedAddNodeRollsBack(t *testing.T) {
	const n, rf = 90, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 11)

	broken := NewLocalMember("nx", locserv.NewNodeService(locserv.NewSharded(2), nil))
	if err := f.coord.AddNode(broken); err == nil {
		t.Fatal("joining a factory-less member must fail the handoff")
	}
	if nodes := f.coord.Nodes(); len(nodes) != 3 {
		t.Fatalf("failed join left membership %v", nodes)
	}
	total := 0
	for _, ms := range f.coord.MemberStats() {
		total += ms.Node.Objects
	}
	if total != n*rf {
		t.Fatalf("failed join lost replicas: %d of %d copies", total, n*rf)
	}
	assertSnapshotEqual(t, "after failed replicated AddNode", before, snapshot(f.coord, n, 11))

	good, _ := linearNode("nx", 2)
	if err := f.coord.AddNode(good); err != nil {
		t.Fatal(err)
	}
	assertSnapshotEqual(t, "after recovered replicated AddNode", before, snapshot(f.coord, n, 11))
}

// TestCoordinatorReweight migrates the cluster onto load-derived vnode
// weights: answers stay bit-identical while the reweighted member's
// share of the key space moves the way the weights say.
func TestCoordinatorReweight(t *testing.T) {
	const n, rf = 200, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 5)

	ownedBy := func(name string) int {
		owned := 0
		for i := 0; i < n; i++ {
			for _, o := range f.coord.Owners(locserv.ObjectID(fmt.Sprintf("obj-%04d", i))) {
				if o == name {
					owned++
				}
			}
		}
		return owned
	}
	beforeShare := ownedBy("n1")
	if err := f.coord.Reweight(map[string]int{"n1": DefaultVnodes * 3}); err != nil {
		t.Fatal(err)
	}
	afterShare := ownedBy("n1")
	if afterShare <= beforeShare {
		t.Fatalf("tripling n1's vnodes did not grow its share: %d -> %d", beforeShare, afterShare)
	}
	assertSnapshotEqual(t, "after reweight", before, snapshot(f.coord, n, 5))

	// Every replica still lives exactly on its (new) preference list.
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		for _, name := range f.coord.Owners(id) {
			if !f.nodes[name].Service().Contains(id) {
				t.Fatalf("owner %s does not hold %s after reweight", name, id)
			}
		}
	}

	if err := f.coord.Reweight(map[string]int{"ghost": 10}); err == nil {
		t.Fatal("reweighting an unknown member succeeded")
	}
}

func TestBalancedWeights(t *testing.T) {
	stats := []MemberStats{
		{Name: "hot", Records: 3000},
		{Name: "warm", Records: 1000},
		{Name: "cool", Records: 500},
	}
	w := BalancedWeights(64, stats)
	if !(w["hot"] < 64 && w["warm"] >= 64 && w["cool"] > w["warm"]) {
		t.Fatalf("weights %v do not counteract the load skew", w)
	}
	if w["hot"] < 16 || w["cool"] > 256 {
		t.Fatalf("weights %v escaped the clamp", w)
	}
	// No traffic at all: everyone keeps the base count.
	idle := BalancedWeights(64, []MemberStats{{Name: "a"}, {Name: "b"}})
	if idle["a"] != 64 || idle["b"] != 64 {
		t.Fatalf("idle weights %v, want base", idle)
	}
}

// TestWithinPagingFrameBoundary pushes a Within answer past one
// response frame (MaxFrameBody) and checks the paged wire round trip
// reassembles it bit-identically: long ids make each hit ~1 KiB, so a
// few thousand objects overflow the 4 MiB frame and the remote node
// must follow the cursor across pages.
func TestWithinPagingFrameBoundary(t *testing.T) {
	node := locserv.NewNodeService(locserv.NewSharded(8),
		func(locserv.ObjectID) core.Predictor { return core.StaticPredictor{} })
	pad := make([]byte, 990)
	for i := range pad {
		pad[i] = 'x'
	}
	const count = 4500
	recs := make([]wire.Record, count)
	bytesPerHit := 0
	for i := range recs {
		id := fmt.Sprintf("obj-%s-%05d", pad, i)
		recs[i] = wire.Record{ID: id, Update: core.Update{
			Reason: core.ReasonInit,
			Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i%100), float64(i/100))},
		}}
		bytesPerHit = wire.QueryHitSize(wire.QueryHit{ID: id, Seq: 1})
	}
	if total := bytesPerHit * count; total <= wire.MaxFrameBody {
		t.Fatalf("fixture too small: %d hit bytes do not overflow the %d frame bound", total, wire.MaxFrameBody)
	}
	if applied, err := node.Deliver(recs); err != nil || applied != count {
		t.Fatalf("seed: applied %d, err %v", applied, err)
	}

	var served atomic.Int64
	qs := node.QueryServer()
	lb := wire.NewStreamLoopback(wire.StreamServer{Query: wire.QueryServerFunc(func(req wire.QueryRequest) wire.QueryResponse {
		served.Add(1)
		return qs.ServeQuery(req)
	})})
	remote := NewRemoteNode(lb, nil)
	rect := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1e6, 1e6)}
	got, err := remote.Within(rect, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := node.Service().Within(rect, 0)
	if len(want) != count {
		t.Fatalf("direct answer holds %d of %d", len(want), count)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged wire answer differs from the direct one (%d vs %d hits)", len(got), len(want))
	}
	if n := served.Load(); n < 2 {
		t.Fatalf("answer arrived in %d query frames — paging never engaged", n)
	}

	// An explicit page limit cuts smaller pages; the cursor chain still
	// reassembles the identical answer.
	var paged []locserv.ObjectPos
	after := ""
	pages := 0
	for {
		resp := locserv.ServeQuery(node, wire.QueryRequest{
			Op:   wire.OpWithin,
			MinX: rect.Min.X, MinY: rect.Min.Y, MaxX: rect.Max.X, MaxY: rect.Max.Y,
			T: 0, After: after, Limit: 1000,
		})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if len(resp.Hits) > 1000 {
			t.Fatalf("page of %d hits exceeds the limit", len(resp.Hits))
		}
		paged = append(paged, locserv.FromWireHits(resp.Hits)...)
		pages++
		if resp.Next == "" {
			break
		}
		after = resp.Next
	}
	if pages < count/1000 {
		t.Fatalf("only %d pages for %d hits at limit 1000", pages, count)
	}
	if !reflect.DeepEqual(paged, want) {
		t.Fatal("limit-paged answer differs from the direct one")
	}
}
