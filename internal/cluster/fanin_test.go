package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// waitFor polls cond until it holds — the sync point for work the
// fan-in layer finishes in a background goroutine (a resumed drive).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fanInFixture is a 2-coordinator fan-in tier over one shared node
// set: each coordinator wraps the same NodeServices in its own faulty
// members (so faults can be asymmetric per coordinator), and the peer
// channel is a member stream of one peer kind.
type fanInFixture struct {
	a, b  *Coordinator
	nodes map[string]*locserv.NodeService
	injA  map[string]*FaultInjector
	injB  map[string]*FaultInjector
	names []string

	mu       sync.Mutex
	joinable map[string]*locserv.NodeService // nodes a factory may build members for
}

func fanInNode() *locserv.NodeService {
	return locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
}

func (fx *fanInFixture) factory(inj map[string]*FaultInjector) func(name, addr string) (*Member, error) {
	return func(name, addr string) (*Member, error) {
		fx.mu.Lock()
		node := fx.joinable[name]
		fx.mu.Unlock()
		if node == nil {
			return nil, fmt.Errorf("no joinable node %q", name)
		}
		m, in := NewFaultyMember(name, node)
		fx.mu.Lock()
		inj[name] = in
		fx.mu.Unlock()
		return m, nil
	}
}

// addJoinable registers a node both coordinators' member factories can
// resolve, and returns coordinator A's own member handle for it.
func (fx *fanInFixture) addJoinable(name string) (*Member, *locserv.NodeService) {
	node := fanInNode()
	fx.mu.Lock()
	fx.joinable[name] = node
	fx.mu.Unlock()
	m, in := NewFaultyMember(name, node)
	fx.mu.Lock()
	fx.injA[name] = in
	fx.mu.Unlock()
	return m, node
}

// peerKind is one way a fan-in pair's coordinators reach each other:
// dial returns a peer transport to c.
type peerKind struct {
	name string
	dial func(t *testing.T, c *Coordinator) wire.PeerTransport
}

var peerKinds = []peerKind{
	// The in-process member stream: every peer frame through the stream
	// codec and answer checks, synchronously, no socket.
	{"loopback", func(_ *testing.T, c *Coordinator) wire.PeerTransport { return peerLoopback(c) }},
	// Both fronts behind their HTTP handlers, each dialing the other's
	// GET /member: the deployed peer path.
	{"stream", func(t *testing.T, c *Coordinator) wire.PeerTransport { return peerStream(t, c) }},
}

// peerLoopback is the in-process member stream to coordinator c.
func peerLoopback(c *Coordinator) *wire.Stream {
	return wire.NewStreamLoopback(wire.StreamServer{Peer: c.ServePeer})
}

// peerStream serves c's HTTP handler and returns a member stream to it.
func peerStream(t *testing.T, c *Coordinator) *wire.Stream {
	ts := httptest.NewServer(Handler(c))
	t.Cleanup(ts.Close)
	s := wire.NewStream(ts.URL)
	t.Cleanup(func() { s.Close() })
	return s
}

// forPeerKinds runs test once per peer kind, as a subtest.
func forPeerKinds(t *testing.T, test func(t *testing.T, pk peerKind)) {
	for _, pk := range peerKinds {
		t.Run(pk.name, func(t *testing.T) { test(t, pk) })
	}
}

// newFanInPair is newFanInPairOver the in-process peer kind.
func newFanInPair(t *testing.T, n, rf int, cfg FanInConfig) *fanInFixture {
	t.Helper()
	return newFanInPairOver(t, peerKinds[0], n, rf, cfg)
}

func newFanInPairOver(t *testing.T, pk peerKind, n, rf int, cfg FanInConfig) *fanInFixture {
	t.Helper()
	fx := &fanInFixture{
		nodes:    make(map[string]*locserv.NodeService, n),
		injA:     make(map[string]*FaultInjector, n),
		injB:     make(map[string]*FaultInjector, n),
		joinable: make(map[string]*locserv.NodeService),
	}
	membersA := make([]*Member, n)
	membersB := make([]*Member, n)
	for i := range membersA {
		name := fmt.Sprintf("n%d", i+1)
		node := fanInNode()
		ma, ia := NewFaultyMember(name, node)
		mb, ib := NewFaultyMember(name, node)
		membersA[i], membersB[i] = ma, mb
		fx.nodes[name] = node
		fx.injA[name], fx.injB[name] = ia, ib
		fx.names = append(fx.names, name)
	}
	a, err := NewReplicated(0, rf, membersA...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReplicated(0, rf, membersB...)
	if err != nil {
		t.Fatal(err)
	}
	fx.a, fx.b = a, b
	cfgA, cfgB := cfg, cfg
	cfgA.MemberFactory = fx.factory(fx.injA)
	cfgB.MemberFactory = fx.factory(fx.injB)
	a.EnableFanIn("co-a", cfgA)
	b.EnableFanIn("co-b", cfgB)
	if err := a.AddPeerCoordinator("co-b", pk.dial(t, b)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeerCoordinator("co-a", pk.dial(t, a)); err != nil {
		t.Fatal(err)
	}
	return fx
}

// assertSameRouting fails unless both coordinators resolve every
// object's full owner set (ring plus dual adds) identically.
func assertSameRouting(t *testing.T, fx *fanInFixture, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		fx.a.mu.RLock()
		oa := fx.a.ownersFor(nil, id)
		fx.a.mu.RUnlock()
		fx.b.mu.RLock()
		ob := fx.b.ownersFor(nil, id)
		fx.b.mu.RUnlock()
		if len(oa) != len(ob) {
			t.Fatalf("%s: owners diverge: co-a %v, co-b %v", id, oa, ob)
		}
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("%s: owners diverge: co-a %v, co-b %v", id, oa, ob)
			}
		}
	}
}

// TestFanInReplicatesJoin proves a join driven by one coordinator
// lands on the other entirely through the log: same members, same
// ring, same routing, equal logs.
func TestFanInReplicatesJoin(t *testing.T) { forPeerKinds(t, fanInReplicatesJoin) }

func fanInReplicatesJoin(t *testing.T, pk peerKind) {
	const n = 200
	fx := newFanInPairOver(t, pk, 4, 2, FanInConfig{LeaseFor: 30, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	m5, _ := fx.addJoinable("n5")
	if err := fx.a.AddNode(m5); err != nil {
		t.Fatal(err)
	}
	if got := fx.b.Nodes(); len(got) != 5 {
		t.Fatalf("co-b nodes after replicated join: %v, want 5 members", got)
	}
	assertSameRouting(t, fx, n)
	if !wire.EqualLogs(fx.a.MembershipLog(), fx.b.MembershipLog()) {
		t.Fatalf("logs diverge:\nco-a %+v\nco-b %+v", fx.a.MembershipLog(), fx.b.MembershipLog())
	}
	st := fx.b.FanInStats()
	if st.Applies < 2 || st.OpenRuns != 0 {
		t.Fatalf("co-b fan-in stats %+v: want Begin+Commit applied, no open runs", st)
	}
	// The follower serves the post-join cluster: every object answers.
	for i := 0; i < n; i += 17 {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if _, ok, err := fx.b.PositionE(id, 1); !ok || err != nil {
			t.Fatalf("co-b position %s after replicated join: ok=%v err=%v", id, ok, err)
		}
	}
}

// TestFanInDualRoutingMidMigration proves both coordinators route
// identically while a run is mid-copy: the follower publishes the dual
// entries from the Begin record alone.
func TestFanInDualRoutingMidMigration(t *testing.T) {
	const n = 200
	fx := newFanInPair(t, 4, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	// Halt the driver at the first range's copy step.
	halt := fmt.Errorf("injected crash")
	fired := false
	fx.a.migHook = func(kind string, lo, hi uint64, phase MigrationPhase) error {
		if phase == MigCopying && !fired {
			fired = true
			return halt
		}
		return nil
	}
	m5, _ := fx.addJoinable("n5")
	mig, err := fx.a.BeginAddNode(m5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err == nil {
		t.Fatal("run completed despite crash hook")
	}

	// Mid-run: the Begin gossip already carried the duals to co-b.
	if st := fx.b.FanInStats(); st.OpenRuns != 1 {
		t.Fatalf("co-b open runs %d, want 1", st.OpenRuns)
	}
	if got := fx.b.Nodes(); len(got) != 5 {
		t.Fatalf("co-b scatter set mid-join: %v, want n5 included", got)
	}
	assertSameRouting(t, fx, n)

	// Resume on the driver; commit replicates and both converge.
	fx.a.migHook = nil
	if err := resume(fx.a, mig); err != nil {
		t.Fatal(err)
	}
	assertSameRouting(t, fx, n)
	if st := fx.b.FanInStats(); st.OpenRuns != 0 {
		t.Fatalf("co-b open runs after commit %d, want 0", st.OpenRuns)
	}
}

// TestFanInFencedDemotion races both coordinators' self-heal loops at
// the same dead member: exactly one acquires the lease and drives the
// demotion; the loser no-ops and learns the leave from the log.
func TestFanInFencedDemotion(t *testing.T) {
	const n = 150
	fx := newFanInPair(t, 4, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)
	for _, c := range []*Coordinator{fx.a, fx.b} {
		c.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, SuspectAfter: 2, DemoteAfter: 5})
	}

	// n1 is dead from both coordinators' perspectives.
	fx.injA["n1"].Fail()
	fx.injB["n1"].Fail()
	if err := fx.a.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	if err := fx.b.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}

	// Both loops race the deadline tick.
	var wg sync.WaitGroup
	for _, c := range []*Coordinator{fx.a, fx.b} {
		wg.Add(1)
		go func(c *Coordinator) {
			defer wg.Done()
			c.Tick(6)
		}(c)
	}
	wg.Wait()
	fx.a.Tick(7)
	fx.b.Tick(7)

	da := fx.a.SelfHealStats().Demotions
	db := fx.b.SelfHealStats().Demotions
	if da+db != 1 {
		t.Fatalf("demotions co-a=%d co-b=%d, want exactly one across the tier", da, db)
	}
	for label, c := range map[string]*Coordinator{"co-a": fx.a, "co-b": fx.b} {
		if got := c.Nodes(); len(got) != 3 {
			t.Fatalf("%s nodes after fenced demotion: %v, want n1 gone", label, got)
		}
		if got := c.Demoted(); len(got) != 1 || got[0] != "n1" {
			t.Fatalf("%s demoted %v, want [n1] (parked via log on the loser)", label, got)
		}
	}
	assertSameRouting(t, fx, n)
	if !wire.EqualLogs(fx.a.MembershipLog(), fx.b.MembershipLog()) {
		t.Fatal("logs diverge after fenced demotion")
	}
}

// TestFanInLeaseStealResume kills the coordinator driving a join
// mid-copy (it halts and stops ticking): the peer's lease steal on
// expiry rebuilds the run from the log, re-copies, commits — and the
// dead driver's cluster state is never consulted.
func TestFanInLeaseStealResume(t *testing.T) { forPeerKinds(t, fanInLeaseStealResume) }

func fanInLeaseStealResume(t *testing.T, pk peerKind) {
	const n = 200
	fx := newFanInPairOver(t, pk, 4, 2, FanInConfig{LeaseFor: 10, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	// co-a halts at the second range's copy — mid-run, some ranges done.
	var copies atomic.Int32
	fx.a.migHook = func(kind string, lo, hi uint64, phase MigrationPhase) error {
		if phase == MigCopying && copies.Add(1) == 2 {
			return fmt.Errorf("injected driver kill")
		}
		return nil
	}
	m5, node5 := fx.addJoinable("n5")
	_ = node5
	mig, err := fx.a.BeginAddNode(m5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err == nil {
		t.Fatal("run completed despite injected kill")
	}
	// co-a is dead from here: no more ticks, no abort, nothing.

	if st := fx.b.FanInStats(); st.OpenRuns != 1 {
		t.Fatalf("co-b open runs %d, want the orphaned join", st.OpenRuns)
	}
	// Before the lease expires the peer must NOT steal.
	fx.b.Tick(5)
	if st := fx.b.FanInStats(); st.Steals != 0 {
		t.Fatalf("co-b stole an unexpired lease: %+v", st)
	}
	// Past expiry: steal, resume from the log, drive to commit. The
	// drive runs in the background (Tick must never block on a copy),
	// so wait for the commit before inspecting the converged state.
	fx.b.Tick(15)
	if st := fx.b.FanInStats(); st.Steals != 1 || st.Resumes != 1 || !st.Holding {
		t.Fatalf("co-b after steal %+v: want 1 steal, 1 resume, holding", st)
	}
	waitFor(t, "resumed drive to commit", func() bool {
		ms := fx.b.MigrationStats()
		return !ms.Active && ms.Migrations == 1 && fx.b.FanInStats().OpenRuns == 0
	})
	if got := fx.b.Nodes(); len(got) != 5 {
		t.Fatalf("co-b nodes after resumed join: %v", got)
	}

	// Zero query errors, and every object is served replicated on the
	// committed ring.
	if qe := fx.b.QueryErrors(); qe != 0 {
		t.Fatalf("co-b query errors %d, want 0", qe)
	}
	onN5 := 0
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if _, ok, err := fx.b.PositionE(id, 1); !ok || err != nil {
			t.Fatalf("position %s after resumed commit: ok=%v err=%v", id, ok, err)
		}
		owners := fx.b.Owners(id)
		if len(owners) != 2 {
			t.Fatalf("%s owners %v after resume", id, owners)
		}
		for _, name := range owners {
			if name == "n5" {
				onN5++
			}
			fx.mu.Lock()
			node := fx.nodes[name]
			if node == nil {
				node = fx.joinable[name]
			}
			fx.mu.Unlock()
			if !node.Service().Contains(id) {
				t.Fatalf("%s not held by owner %s after resumed migration", id, name)
			}
		}
	}
	if onN5 == 0 {
		t.Fatal("resumed join moved no ranges onto n5")
	}
	if qe := fx.b.QueryErrors(); qe != 0 {
		t.Fatalf("co-b query errors %d, want 0", qe)
	}
}

// TestFanInHintForwarding proves hint custody crosses the tier: a node
// unreachable from one coordinator but healthy from its peer gets its
// buffered updates through the peer, and the local buffer drains.
func TestFanInHintForwarding(t *testing.T) { forPeerKinds(t, fanInHintForwarding) }

func fanInHintForwarding(t *testing.T, pk peerKind) {
	const n = 150
	fx := newFanInPairOver(t, pk, 4, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	// n1 is down from co-a's side only.
	fx.injA["n1"].Fail()
	if err := fx.a.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	if err := fx.a.Send(1, repBatch(n, 2)); err != nil {
		t.Fatal(err)
	}
	buffered := 0
	for _, ms := range fx.a.MemberStats() {
		if ms.Name == "n1" {
			buffered = ms.Hints.Buffered
		}
	}
	if buffered == 0 {
		t.Fatal("no hints buffered for the partitioned member")
	}

	fx.a.Tick(2) // forwards the buffer through co-b
	if got := fx.a.FanInStats().HintsForwarded; got != int64(buffered) {
		t.Fatalf("hints forwarded %d, want %d", got, buffered)
	}
	for _, ms := range fx.a.MemberStats() {
		if ms.Name == "n1" && ms.Hints.Buffered != 0 {
			t.Fatalf("co-a still buffers %d hints after custody transfer", ms.Hints.Buffered)
		}
	}
	// The records really landed: n1 holds the seq-2 report for an
	// object it owns.
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		if !containsName(fx.a.Owners(id), "n1") {
			continue
		}
		_, seq, found, err := fx.nodes["n1"].Position(id, 2)
		if err != nil || !found || seq != 2 {
			t.Fatalf("n1 %s after hint forward: seq=%d found=%v err=%v, want seq 2", id, seq, found, err)
		}
	}

	// And when the peer cannot reach the member either, custody stays.
	fx.injB["n1"].Fail()
	if err := fx.b.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	if err := fx.a.Send(3, repBatch(20, 3)); err != nil {
		t.Fatal(err)
	}
	fx.a.Tick(4)
	kept := 0
	for _, ms := range fx.a.MemberStats() {
		if ms.Name == "n1" {
			kept = ms.Hints.Buffered
		}
	}
	if kept == 0 {
		t.Fatal("hints were dropped though no coordinator could deliver them")
	}
}

// TestFanInHintForwardingPastFrameBound: a hint buffer whose encoding
// outgrows one peer frame still crosses the tier whole, in chunks each
// confirmed on its own, rather than failing as one oversized request on
// every tick.
func TestFanInHintForwardingPastFrameBound(t *testing.T) {
	fx := newFanInPair(t, 2, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 1})
	fx.injA["n1"].Fail()
	if err := fx.a.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	// At R=2 over two nodes n1 owns every object: all of them hint.
	pad := strings.Repeat("x", 1000)
	recs := make([]wire.Record, 4500)
	for i := range recs {
		recs[i] = wire.Record{ID: fmt.Sprintf("big-%s-%05d", pad, i), Update: core.Update{
			Reason: core.ReasonInit,
			Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i), 0)},
		}}
	}
	if size := wire.BatchSize(recs); size <= wire.MaxFrameBody {
		t.Fatalf("fixture too small: %d hint bytes fit one %d-byte frame", size, wire.MaxFrameBody)
	}
	if err := fx.a.Send(1, recs); err != nil {
		t.Fatal(err)
	}
	hints := func() int {
		for _, ms := range fx.a.MemberStats() {
			if ms.Name == "n1" {
				return ms.Hints.Buffered
			}
		}
		return -1
	}
	if got := hints(); got != len(recs) {
		t.Fatalf("%d hints buffered for n1, want %d", got, len(recs))
	}

	fx.a.Tick(2)
	if got := fx.a.FanInStats().HintsForwarded; got != int64(len(recs)) {
		t.Fatalf("hints forwarded %d, want %d", got, len(recs))
	}
	if got := hints(); got != 0 {
		t.Fatalf("co-a still buffers %d hints after custody transfer", got)
	}
	for _, i := range []int{0, len(recs) / 2, len(recs) - 1} {
		id := locserv.ObjectID(recs[i].ID)
		if _, seq, found, err := fx.nodes["n1"].Position(id, 1); err != nil || !found || seq != 1 {
			t.Fatalf("n1 record %d after hint forward: seq=%d found=%v err=%v", i, seq, found, err)
		}
	}
}

// TestFanInClusterViewOverStream: with the fronts peered over member
// streams, GET /cluster on either one lists both fronts as reachable.
func TestFanInClusterViewOverStream(t *testing.T) {
	fx := newFanInPairOver(t, peerKinds[1], 3, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 1})
	for _, c := range []*Coordinator{fx.a, fx.b} {
		ts := httptest.NewServer(Handler(c))
		resp, err := http.Get(ts.URL + "/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var view clusterJSON
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		reachable := make(map[string]bool)
		for _, co := range view.Coordinators {
			reachable[co.ID] = co.Reachable
		}
		if len(view.Coordinators) != 2 || !reachable["co-a"] || !reachable["co-b"] {
			t.Fatalf("GET /cluster on %s: coordinators %+v, want co-a and co-b reachable", view.Coordinator, view.Coordinators)
		}
	}
}

// TestFanInStaleLeaseAppendRejected proves the fence at the record
// level: a partitioned coordinator whose lease expired keeps appending
// under its old tenure; once the logs merge, the thief's sweep orders
// the steal before the straggler and rejects it — on every
// coordinator alike. The coordinators are built without peer links so
// the partition window actually exists (a registered peer would learn
// of the steal during the acquire gossip).
func TestFanInStaleLeaseAppendRejected(t *testing.T) {
	mk := func(id string) *Coordinator {
		m, _ := NewFaultyMember("n1", fanInNode())
		c, err := NewReplicated(0, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableFanIn(id, FanInConfig{LeaseFor: 10})
		c.EnableSelfHeal(DefaultSelfHealConfig())
		return c
	}
	a, b := mk("co-a"), mk("co-b")
	fa, fb := a.fanin.Load(), b.fanin.Load()

	if !fa.holdLease(0) {
		t.Fatal("co-a could not acquire the free lease")
	}
	// co-b learns of co-a's tenure, then steals it after expiry.
	fb.mergeAndApply("", 0, a.MembershipLog())
	if fb.holdLease(5) {
		t.Fatal("co-b acquired an unexpired lease")
	}
	if !fb.holdLease(20) {
		t.Fatal("co-b could not steal the expired lease")
	}
	if st := b.FanInStats(); st.Steals != 1 {
		t.Fatalf("co-b fan-in stats %+v, want 1 steal", st)
	}
	// The zombie, still partitioned, renews its own tenure (raising its
	// epoch past the steal's, so its next record sorts after the steal
	// in total order) and then appends under the stale tenure.
	if !fa.holdLease(6) {
		t.Fatal("zombie could not renew on its own partitioned log")
	}
	rec, err := fa.appendMigrationRecord(wire.LogRecord{Kind: wire.LogPark, Target: "n9"})
	if err != nil {
		t.Fatalf("zombie append failed locally (its own fold still names it): %v", err)
	}
	before := fb.rejects.Load()
	fb.mergeAndApply("", 0, []wire.LogRecord{rec})
	if got := fb.rejects.Load(); got != before+1 {
		t.Fatalf("co-b rejects %d → %d, want the stale record fenced", before, got)
	}
	if got := b.Demoted(); len(got) != 0 {
		t.Fatalf("co-b parked %v from a fenced record", got)
	}
	// The partition heals: the zombie merges the steal, refolds, and
	// agrees it was deposed — logs and verdicts converge. Its own
	// locally-applied straggler is now fenced, so the repair path runs
	// (the park never stuck locally, so the unpark is a no-op).
	fa.mergeAndApply("", 0, b.MembershipLog())
	fb.mergeAndApply("", 0, a.MembershipLog())
	if holder, _, _ := fa.leaseState(); holder != "co-b" {
		t.Fatalf("co-a lease fold after heal: holder %q, want co-b", holder)
	}
	if got := a.Demoted(); len(got) != 0 {
		t.Fatalf("co-a parked %v from its own fenced record", got)
	}
	if st := a.FanInStats(); st.Repairs != 1 {
		t.Fatalf("co-a repairs %d, want its fenced park repaired once", st.Repairs)
	}
	if !wire.EqualLogs(a.MembershipLog(), b.MembershipLog()) {
		t.Fatal("logs diverge after the partition heals")
	}
}

// TestFanInLogApplyRacesRouting hammers one coordinator's ingest and
// query paths while its peer drives a join whose records it applies
// concurrently — the -race proof that log application and live routing
// are safe together.
func TestFanInLogApplyRacesRouting(t *testing.T) {
	const n = 200
	fx := newFanInPair(t, 4, 2, FanInConfig{LeaseFor: 1000, GossipEvery: 0.001})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint32(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fx.a.Send(float64(seq), repBatch(n, seq)); err != nil {
				t.Errorf("send during log apply: %v", err)
				return
			}
			fx.a.Nearest(geo.Pt(100, 100), 10, float64(seq))
			fx.a.Tick(float64(seq))
			seq++
		}
	}()

	fx.mu.Lock()
	node5 := fanInNode()
	fx.joinable["n5"] = node5
	fx.mu.Unlock()
	m5b, _ := NewFaultyMember("n5", node5)
	if err := fx.b.AddNode(m5b); err != nil {
		t.Fatalf("join driven by co-b: %v", err)
	}
	close(stop)
	wg.Wait()

	fx.a.Tick(1e6)
	if got := fx.a.Nodes(); len(got) != 5 {
		t.Fatalf("co-a nodes after concurrent replicated join: %v", got)
	}
	assertSameRouting(t, fx, n)
}

// TestFanInZeroPeers proves a fan-in coordinator with no peers behaves
// like a single front: the lease self-acquires and migrations run.
func TestFanInZeroPeers(t *testing.T) {
	node := fanInNode()
	m, _ := NewFaultyMember("n1", node)
	c, err := NewReplicated(0, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableFanIn("solo", FanInConfig{})
	m2, _ := NewFaultyMember("n2", fanInNode())
	if err := c.AddNode(m2); err != nil {
		t.Fatal(err)
	}
	st := c.FanInStats()
	if !st.Holding || st.LogLen < 3 || st.OpenRuns != 0 {
		t.Fatalf("solo fan-in stats %+v: want lease held, lease+begin+commit logged", st)
	}
}

// flakyPeer wraps a peer transport with a switchable failure — the
// partition injector for the quorum tests.
type flakyPeer struct {
	pt   wire.PeerTransport
	fail atomic.Bool
}

func (p *flakyPeer) Peer(req wire.PeerRequest) (wire.PeerResponse, error) {
	if p.fail.Load() {
		return wire.PeerResponse{}, fmt.Errorf("injected partition")
	}
	return p.pt.Peer(req)
}

// newLinkedPair builds two single-node coordinators peered through
// flaky links, returning the fan-in states and each side's outbound
// link (aToB carries a's pushes to b).
func newLinkedPair(t *testing.T, cfg FanInConfig) (fa, fb *fanIn, aToB, bToA *flakyPeer) {
	t.Helper()
	mk := func(id string) *Coordinator {
		m, _ := NewFaultyMember("n1", fanInNode())
		c, err := NewReplicated(0, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableFanIn(id, cfg)
		return c
	}
	a, b := mk("co-a"), mk("co-b")
	aToB = &flakyPeer{pt: peerLoopback(b)}
	bToA = &flakyPeer{pt: peerLoopback(a)}
	if err := a.AddPeerCoordinator("co-b", aToB); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeerCoordinator("co-a", bToA); err != nil {
		t.Fatal(err)
	}
	return a.fanin.Load(), b.fanin.Load(), aToB, bToA
}

// TestFanInNoQuorumNoSteal proves the quorum gate on acquisition: a
// coordinator partitioned from its peer cannot steal an expired lease
// on its stale local fold alone — the split-brain the reviewer's
// two-live-holders scenario starts from. The steal succeeds only once
// the partition heals.
func TestFanInNoQuorumNoSteal(t *testing.T) {
	fa, fb, _, bToA := newLinkedPair(t, FanInConfig{LeaseFor: 10, GossipEvery: 1000})
	if !fa.holdLease(0) {
		t.Fatal("co-a could not acquire the free lease")
	}
	// co-b knows of the tenure (the acquire gossip reached it), then
	// loses its link to co-a.
	bToA.fail.Store(true)
	if fb.holdLease(20) {
		t.Fatal("co-b stole the lease without reaching a quorum")
	}
	st := fb.c.FanInStats()
	if st.Steals != 0 || st.Denied == 0 {
		t.Fatalf("co-b stats during partition %+v: want denial, no steal", st)
	}
	if st.LastGossipErr == "" {
		t.Fatal("co-b did not surface its gossip failure")
	}
	bToA.fail.Store(false)
	if !fb.holdLease(21) {
		t.Fatal("co-b could not steal once the partition healed")
	}
	if st := fb.c.FanInStats(); st.Steals != 1 || st.LastGossipErr != "" {
		t.Fatalf("co-b stats after heal %+v: want the steal, gossip error cleared", st)
	}
}

// TestFanInHolderStepsDownUnacked proves the other half of the gate: a
// holder whose renewals stop reaching a quorum keeps acting only
// through the last expiry a quorum acknowledged, then answers false —
// it cannot outlive its acked tenure on local renewals alone.
func TestFanInHolderStepsDownUnacked(t *testing.T) {
	fa, _, aToB, _ := newLinkedPair(t, FanInConfig{LeaseFor: 10, GossipEvery: 1000})
	if !fa.holdLease(0) {
		t.Fatal("co-a could not acquire the free lease")
	}
	aToB.fail.Store(true)
	// Still inside the acked window (the acquire confirmed until 10):
	// the renewal push fails but the holder may keep acting.
	if !fa.holdLease(6) {
		t.Fatal("holder stepped down inside its acked window")
	}
	// Past the acked expiry with the partition still up: step down,
	// even though the local fold (self-renewed) says the tenure lives.
	if fa.holdLease(12) {
		t.Fatal("holder outlived its acked tenure on unacknowledged renewals")
	}
	// Heal: the backlog replicates, the quorum acks, the holder is back.
	aToB.fail.Store(false)
	if !fa.holdLease(13) {
		t.Fatal("holder did not recover after the partition healed")
	}
}

// TestFanInLogCompaction proves the log stays bounded: a long run of
// lease renewals (the steady-state append traffic of a self-healing
// deployment) compacts down to the tenure skeleton, the floor
// advances, and the lease keeps working across the compaction.
func TestFanInLogCompaction(t *testing.T) {
	node := fanInNode()
	m, _ := NewFaultyMember("n1", node)
	c, err := NewReplicated(0, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableFanIn("solo", FanInConfig{LeaseFor: 10})
	f := c.fanin.Load()
	for i := 0; i < 200; i++ {
		if !f.holdLease(float64(6 * i)) {
			t.Fatalf("renewal %d failed", i)
		}
	}
	st := c.FanInStats()
	if st.Compactions == 0 || st.Floor == 0 {
		t.Fatalf("stats after 200 renewals %+v: want compactions and an advanced floor", st)
	}
	if st.LogLen >= compactAfter {
		t.Fatalf("log len %d after compaction, want < %d", st.LogLen, compactAfter)
	}
	// The fold survived compaction: still the holder, and a migration
	// (which appends fenced records against the folded tenure) runs.
	if !st.Holding {
		t.Fatalf("lease lost across compaction: %+v", st)
	}
	m2, _ := NewFaultyMember("n2", fanInNode())
	if err := c.AddNode(m2); err != nil {
		t.Fatalf("join after compaction: %v", err)
	}
}

// TestFanInCompactionConverges proves compaction is safe under
// replication: two coordinators exchanging a long renewal history
// compact independently (covers and floors advance through gossip) and
// still converge to equal logs with the same lease fold.
func TestFanInCompactionConverges(t *testing.T) {
	fa, fb, _, _ := newLinkedPair(t, FanInConfig{LeaseFor: 10, GossipEvery: 1})
	if !fa.holdLease(0) {
		t.Fatal("co-a could not acquire the lease")
	}
	for i := 1; i <= 150; i++ {
		now := float64(6 * i)
		if !fa.holdLease(now) {
			t.Fatalf("renewal %d failed", i)
		}
		fb.gossipIfDue(now)
	}
	// Quiesce: append-free exchanges until both logs agree.
	equal := false
	for i := 0; i < 20 && !equal; i++ {
		fa.gossip()
		fb.gossip()
		equal = wire.EqualLogs(fa.c.MembershipLog(), fb.c.MembershipLog())
	}
	if !equal {
		t.Fatalf("logs did not converge after compaction:\nco-a %+v\nco-b %+v",
			fa.c.MembershipLog(), fb.c.MembershipLog())
	}
	sa, sb := fa.c.FanInStats(), fb.c.FanInStats()
	if sa.Compactions == 0 && sb.Compactions == 0 {
		t.Fatalf("neither side compacted: co-a %+v co-b %+v", sa, sb)
	}
	if sa.LogLen >= compactAfter+10 || sb.LogLen >= compactAfter+10 {
		t.Fatalf("logs unbounded after compaction: co-a %d co-b %d", sa.LogLen, sb.LogLen)
	}
	ha, _, _ := fa.leaseState()
	hb, _, _ := fb.leaseState()
	if ha != "co-a" || hb != "co-a" {
		t.Fatalf("lease fold diverged after compaction: co-a sees %q, co-b sees %q", ha, hb)
	}
}

// TestFanInDeposedDriverCleared proves a killed driver's halted run is
// cleared once the thief commits it: the deposed coordinator applies
// the thief's Commit from the log (same ring swap), drops its resident
// halted engine state, and is free for new membership work.
func TestFanInDeposedDriverCleared(t *testing.T) {
	const n = 150
	fx := newFanInPair(t, 4, 2, FanInConfig{LeaseFor: 10, GossipEvery: 1})
	seedReplicated(t, &replicatedFixture{coord: fx.a}, n)

	fx.a.CrashMigrationAfterCopies(2)
	m5, _ := fx.addJoinable("n5")
	mig, err := fx.a.BeginAddNode(m5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err == nil {
		t.Fatal("run completed despite injected kill")
	}
	if ms := fx.a.MigrationStats(); !ms.Active || !ms.Halted {
		t.Fatalf("co-a not halted after kill: %+v", ms)
	}

	// co-b steals past expiry and drives the run to commit; the commit
	// gossip reaches co-a, which clears its halted engine state.
	fx.b.Tick(15)
	waitFor(t, "thief's commit to clear the deposed driver", func() bool {
		ms := fx.b.MigrationStats()
		if ms.Active || ms.Migrations != 1 {
			return false
		}
		fx.a.Tick(16) // re-check path for a clear that raced the halt
		return !fx.a.MigrationStats().Active
	})
	if err := fx.a.abortRun(nil); err != ErrNoMigration {
		t.Fatalf("deposed driver still holds a run: abortRun = %v, want ErrNoMigration", err)
	}
	if got := fx.a.Nodes(); len(got) != 5 {
		t.Fatalf("co-a nodes after the thief's commit: %v", got)
	}
	assertSameRouting(t, fx, n)
	if !wire.EqualLogs(fx.a.MembershipLog(), fx.b.MembershipLog()) {
		t.Fatal("logs diverge after the thief's commit")
	}
}

// TestFanInRefusesSelfPeer: a coordinator refuses its own id as a peer.
// One that gossiped with itself would count its own ack toward the
// quorum, so two fronts given the same peer list and cut off from each
// other would both hold the self-heal lease at once.
func TestFanInRefusesSelfPeer(t *testing.T) {
	mk := func(id string) *Coordinator {
		m, _ := NewFaultyMember("n1", fanInNode())
		c, err := NewReplicated(0, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableFanIn(id, FanInConfig{LeaseFor: 10})
		return c
	}
	fronts := map[string]*Coordinator{"co-a": mk("co-a"), "co-b": mk("co-b")}
	for id, c := range fronts {
		for name, peer := range fronts {
			link := &flakyPeer{pt: peerLoopback(peer)}
			link.fail.Store(name != id) // the two fronts are cut off from each other
			err := c.AddPeerCoordinator(name, link)
			if self := name == id; self != (err != nil) {
				t.Fatalf("%s adding peer %s: err = %v", id, name, err)
			}
		}
	}
	if fronts["co-a"].fanin.Load().holdLease(1) && fronts["co-b"].fanin.Load().holdLease(1) {
		t.Fatal("both partitioned fronts hold the lease")
	}
}
