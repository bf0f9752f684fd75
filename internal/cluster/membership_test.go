package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// TestDetectorSuspectThenDown proves the liveness detector finds a dead
// member with no ingest traffic at all: heartbeats alone walk it
// up → suspect → down.
func TestDetectorSuspectThenDown(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, 50)
	f.coord.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, SuspectAfter: 3})

	f.injectors["n2"].Fail()
	health := func() Health {
		for _, ms := range f.coord.MemberStats() {
			if ms.Name == "n2" {
				return ms.Health
			}
		}
		t.Fatal("n2 missing from MemberStats")
		return HealthUp
	}

	f.coord.Tick(1) // first missed heartbeat
	if got := health(); got != HealthSuspect {
		t.Fatalf("after 1 missed heartbeat: health %v, want suspect", got)
	}
	f.coord.Tick(2)
	if got := health(); got != HealthSuspect {
		t.Fatalf("after 2 missed heartbeats: health %v, want suspect", got)
	}
	f.coord.Tick(3) // third miss trips the breaker
	if got := health(); got != HealthDown {
		t.Fatalf("after 3 missed heartbeats: health %v, want down", got)
	}
	st := f.coord.SelfHealStats()
	if !st.Enabled || st.Heartbeats < 3 || st.Suspects != 1 || st.Trips != 1 {
		t.Fatalf("selfheal stats %+v", st)
	}

	// Recovery: the member answers again; K consecutive probes bring it
	// back and suspicion clears.
	f.injectors["n2"].Recover()
	for i := 0; i < 5 && health() != HealthUp; i++ {
		f.coord.ProbeDown()
	}
	if got := health(); got != HealthUp {
		t.Fatalf("after recovery probes: health %v, want up", got)
	}
}

// TestAutoDemotionOnDeadline proves a member down past DemoteAfter is
// removed without operator intervention, its ranges migrate to
// survivors, its identity parks, and a late rejoin re-enters fresh.
func TestAutoDemotionOnDeadline(t *testing.T) {
	const n = 120
	f := newReplicatedFixture(t, 4, 2)
	seedReplicated(t, f, n)
	f.coord.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, SuspectAfter: 2, DemoteAfter: 5})

	f.injectors["n3"].Fail()
	if err := f.coord.MarkDown("n3", true); err != nil {
		t.Fatal(err)
	}

	f.coord.Tick(3) // within the deadline: still a member
	if len(f.coord.Nodes()) != 4 {
		t.Fatalf("demoted before the deadline: %v", f.coord.Nodes())
	}
	f.coord.Tick(6) // past DemoteAfter = 5
	if got := f.coord.Nodes(); len(got) != 3 {
		t.Fatalf("nodes after deadline %v, want n3 demoted", got)
	}
	if got := f.coord.Demoted(); len(got) != 1 || got[0] != "n3" {
		t.Fatalf("demoted %v, want [n3]", got)
	}
	if st := f.coord.SelfHealStats(); st.Demotions != 1 {
		t.Fatalf("demotions %d, want 1", st.Demotions)
	}

	// Every object survived on R distinct members of the shrunk cluster.
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		owners := f.coord.Owners(id)
		if len(owners) != 2 {
			t.Fatalf("%s has owners %v after demotion", id, owners)
		}
		for _, name := range owners {
			if name == "n3" {
				t.Fatalf("%s still owned by demoted n3", id)
			}
			if !f.nodes[name].Service().Contains(id) {
				t.Fatalf("%s not held by owner %s after demotion migration", id, name)
			}
		}
	}
	if _, ok, _ := f.coord.PositionE("obj-0000", 1); !ok {
		t.Fatal("query failed after demotion")
	}

	// A late rejoin under the parked name is a fresh AddNode.
	f.injectors["n3"].Recover()
	node := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	m, _ := NewFaultyMember("n3", node)
	if err := f.coord.AddNode(m); err != nil {
		t.Fatalf("rejoin after demotion: %v", err)
	}
	if got := f.coord.Demoted(); len(got) != 0 {
		t.Fatalf("demoted after rejoin %v, want unparked", got)
	}
	if got := f.coord.Nodes(); len(got) != 4 {
		t.Fatalf("nodes after rejoin %v", got)
	}
}

// TestAutoDemotionOnHintCount proves the record-count deadline: a down
// member demotes once enough records have been hinted at it since the
// trip, with no wall-clock involvement.
func TestAutoDemotionOnHintCount(t *testing.T) {
	const n = 200
	f := newReplicatedFixture(t, 4, 2)
	seedReplicated(t, f, n)
	f.coord.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, DemoteHints: 50})

	f.injectors["n2"].Fail()
	if err := f.coord.MarkDown("n2", true); err != nil {
		t.Fatal(err)
	}
	// ~n/2 of the records list n2 in their preference list — well past
	// the 50-hint deadline in one batch.
	if err := f.coord.Send(1, repBatch(n, 2)); err != nil {
		t.Fatal(err)
	}
	f.coord.Tick(1)
	if got := f.coord.Demoted(); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("demoted %v, want [n2]", got)
	}
	if got := f.coord.Nodes(); len(got) != 3 {
		t.Fatalf("nodes %v, want n2 removed", got)
	}
}

// TestReweightControlLoop proves the load controller: a skewed ring
// breaches the max/min routed-records ratio, hysteresis holds the
// first breach, and the H-th consecutive breach applies
// BalancedWeights through a live migration.
func TestReweightControlLoop(t *testing.T) {
	const n = 300
	f := newReplicatedFixture(t, 3, 1)
	// Skew the ring hard before any traffic: n1 owns ~97% of the key
	// space.
	if err := f.coord.Reweight(map[string]int{"n1": 256, "n2": 4, "n3": 4}); err != nil {
		t.Fatal(err)
	}
	seedReplicated(t, f, n)
	f.coord.EnableSelfHeal(SelfHealConfig{
		HeartbeatEvery: 1000, // keep heartbeats out of the way
		ReweightEvery:  1, ReweightRatio: 4, ReweightAfter: 2, VnodeBase: 64,
	})

	f.coord.Tick(1) // baseline sample: no window yet, never a breach
	if err := f.coord.Send(1.5, repBatch(n, 2)); err != nil {
		t.Fatal(err)
	}
	f.coord.Tick(2.5) // breach 1: hysteresis holds
	if st := f.coord.SelfHealStats(); st.Reweights != 0 {
		t.Fatalf("reweighted on a single breach (hysteresis broken): %+v", st)
	}
	if err := f.coord.Send(3, repBatch(n, 3)); err != nil {
		t.Fatal(err)
	}
	f.coord.Tick(4) // breach 2: controller acts
	if st := f.coord.SelfHealStats(); st.Reweights != 1 {
		t.Fatalf("reweights %d, want 1", st.Reweights)
	}
	f.coord.mu.RLock()
	w1, w2 := f.coord.ring.Vnodes("n1"), f.coord.ring.Vnodes("n2")
	f.coord.mu.RUnlock()
	if w1 >= 256 || w2 <= 4 {
		t.Fatalf("weights did not rebalance: n1=%d n2=%d", w1, w2)
	}
	// The migration moved data, not just routing: every object is held
	// by its (new) owner and queries still answer the freshest report.
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		owner := f.coord.Owners(id)[0]
		if !f.nodes[owner].Service().Contains(id) {
			t.Fatalf("%s not held by owner %s after reweight", id, owner)
		}
		pos, ok := f.coord.Position(id, 3)
		if !ok {
			t.Fatalf("%s lost after reweight", id)
		}
		if want := repRecord(i, 3).Update.Report.Pos; pos != want {
			t.Fatalf("%s at %v after reweight, want %v", id, pos, want)
		}
	}
}

// TestProbeRecoveryNeedsKSuccesses proves a down member only comes
// back after RecoverAfter consecutive clean probes (flap damping), and
// that it reads as suspect — not up — in between.
func TestProbeRecoveryNeedsKSuccesses(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, 30)
	f.coord.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, RecoverAfter: 3})

	f.injectors["n1"].Fail()
	if err := f.coord.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	f.injectors["n1"].Recover()

	if got := f.coord.ProbeDown(); got != 0 {
		t.Fatalf("recovered after 1 probe, want 0 (K=3)")
	}
	for _, ms := range f.coord.MemberStats() {
		if ms.Name == "n1" && ms.Health != HealthSuspect {
			t.Fatalf("mid-recovery health %v, want suspect", ms.Health)
		}
	}
	if got := f.coord.ProbeDown(); got != 0 {
		t.Fatalf("recovered after 2 probes, want 0 (K=3)")
	}
	if got := f.coord.ProbeDown(); got != 1 {
		t.Fatalf("third probe recovered %d members, want 1", got)
	}
	// A mid-recovery failure resets the streak.
	f.injectors["n1"].Fail()
	if err := f.coord.MarkDown("n1", true); err != nil {
		t.Fatal(err)
	}
	f.injectors["n1"].Recover()
	f.coord.ProbeDown() // 1 of 3
	f.injectors["n1"].Fail()
	f.coord.ProbeDown() // fails: streak back to 0
	f.injectors["n1"].Recover()
	f.coord.ProbeDown() // 1 of 3 again
	if got := f.coord.ProbeDown(); got != 0 {
		t.Fatal("streak survived a failed probe")
	}
	if got := f.coord.ProbeDown(); got != 1 {
		t.Fatalf("want recovery on the third consecutive success, got %d", got)
	}
}

// TestBreakerNoFlapOnDeliverFaulty is the regression test for the
// probe/delivery flap: a member healthy on NodeStats but faulty on
// Deliver used to be marked up by every probe and re-tripped by the
// next send, forever. Recovery now requires the hint drain — a real
// delivery — so the member stays down until writes actually land.
func TestBreakerNoFlapOnDeliverFaulty(t *testing.T) {
	const n = 60
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, n)

	f.injectors["n2"].FailDeliver()
	// Trip the breaker the organic way: failed sends.
	for seq := uint32(2); seq <= 4; seq++ {
		f.coord.Send(float64(seq), repBatch(n, seq))
	}
	down := func() bool {
		for _, ms := range f.coord.MemberStats() {
			if ms.Name == "n2" {
				return ms.Down
			}
		}
		return false
	}
	if !down() {
		t.Fatal("breaker did not trip on delivery failures")
	}
	// Half-dead: stats answer, deliveries fail. No number of probes may
	// flap it up.
	for i := 0; i < 10; i++ {
		if got := f.coord.ProbeDown(); got != 0 {
			t.Fatalf("probe %d recovered a member that cannot take writes", i)
		}
		if !down() {
			t.Fatalf("probe %d flapped the breaker up", i)
		}
	}
	// The failed drains kept every hint (Readd, not drop).
	var hints wire.HintStats
	for _, ms := range f.coord.MemberStats() {
		if ms.Name == "n2" {
			hints = ms.Hints
		}
	}
	if hints.Buffered == 0 || hints.Dropped != 0 {
		t.Fatalf("hints lost across failed probes: %+v", hints)
	}
	if hints.Requeued == 0 {
		t.Fatalf("failed probe drains did not requeue: %+v", hints)
	}

	// Real recovery: deliveries work again, the drain lands, the member
	// comes back and converges.
	f.injectors["n2"].Recover()
	recovered := 0
	for i := 0; i < 5 && recovered == 0; i++ {
		recovered = f.coord.ProbeDown()
	}
	if recovered != 1 || down() {
		t.Fatal("member did not recover once deliveries worked")
	}
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("obj-%04d", i))
		for _, owner := range f.coord.Owners(id) {
			if owner != "n2" {
				continue
			}
			p, seq, ok, err := f.nodes["n2"].Position(id, 4)
			if err != nil || !ok || seq != 4 {
				t.Fatalf("%s on recovered n2: pos %v seq %d ok %v err %v", id, p, seq, ok, err)
			}
		}
	}
}

// TestProbeDownSendRace hammers a flapping member with concurrent
// Sends and ProbeDowns — the probing CAS and the down→up window under
// -race — then proves the cluster settles with the member up and no
// hint stranded anywhere.
func TestProbeDownSendRace(t *testing.T) {
	const n = 40
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, n)
	inj := f.injectors["n3"]

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // flapper
		defer wg.Done()
		for i := 0; i < 200; i++ {
			inj.Fail()
			runtime.Gosched()
			inj.Recover()
			runtime.Gosched()
		}
		stop.Store(true)
	}()
	go func() { // sender
		defer wg.Done()
		for seq := uint32(2); !stop.Load(); seq++ {
			f.coord.Send(float64(seq), repBatch(n, seq))
		}
	}()
	go func() { // prober
		defer wg.Done()
		for !stop.Load() {
			f.coord.ProbeDown()
			runtime.Gosched()
		}
	}()
	wg.Wait()

	// Settle: member reachable, probes drain whatever is left.
	inj.Recover()
	for i := 0; i < 50; i++ {
		f.coord.ProbeDown()
		settled := true
		for _, ms := range f.coord.MemberStats() {
			if ms.Down || ms.Hints.Buffered > 0 {
				settled = false
			}
		}
		if settled {
			break
		}
	}
	for _, ms := range f.coord.MemberStats() {
		if ms.Down {
			t.Fatalf("%s still down after settling", ms.Name)
		}
		if ms.Hints.Buffered > 0 {
			t.Fatalf("%s stranded %d hints after settling", ms.Name, ms.Hints.Buffered)
		}
		if ms.Hints.Dropped > 0 {
			t.Fatalf("%s dropped %d hints", ms.Name, ms.Hints.Dropped)
		}
	}
	if _, ok, err := f.coord.PositionE("obj-0000", 1); !ok || err != nil {
		t.Fatalf("query after settling: ok %v err %v", ok, err)
	}
}

// countingTransport counts Flush calls through to the wrapped
// transport.
type countingTransport struct {
	wire.Transport
	flushes atomic.Int32
}

func (ct *countingTransport) Flush(now float64) error {
	ct.flushes.Add(1)
	return ct.Transport.Flush(now)
}

// TestRecoveredMemberIngestFlushed is the regression test for the
// frames wedged in a recovered member's transport: Coordinator.Flush
// skips down members, so whatever the transport buffered before the
// trip must be flushed exactly once on the down→up transition.
func TestRecoveredMemberIngestFlushed(t *testing.T) {
	newNode := func() *locserv.NodeService {
		return locserv.NewNodeService(locserv.NewSharded(4),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	}
	nodeA, nodeB := newNode(), newNode()
	ct := &countingTransport{Transport: wire.NewLoopback(wire.SinkFunc(func(batch []wire.Record) error {
		_, err := nodeB.Deliver(batch)
		return err
	}))}
	coord, err := NewReplicated(0, 2,
		NewLocalMember("a", nodeA),
		&Member{Name: "b", Node: nodeB, Ingest: ct})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.MarkDown("b", true); err != nil {
		t.Fatal(err)
	}
	before := ct.flushes.Load()
	if got := coord.ProbeDown(); got != 1 {
		t.Fatalf("recovered %d, want 1", got)
	}
	if got := ct.flushes.Load() - before; got != 1 {
		t.Fatalf("ingest flushed %d times on recovery, want exactly 1", got)
	}
}

// TestDrainHintsCapacityExempt pins the PR 5 bug at the cluster level:
// a failed hint replay re-buffers into a full buffer without dropping
// the only surviving copies.
func TestDrainHintsCapacityExempt(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, 30)

	m := f.coord.members["n1"]
	m.hints = wire.NewHintBuffer(4)

	f.injectors["n1"].FailDeliver()
	for seq := uint32(2); seq <= 4; seq++ {
		f.coord.Send(float64(seq), repBatch(30, seq))
	}
	if m.state().health() != HealthDown {
		t.Fatal("breaker did not trip")
	}
	got := m.hints.Len()
	if got != 4 {
		t.Fatalf("buffered %d, want capacity 4", got)
	}
	// Probe: drain of 4 records fails, Readd must keep all 4 even
	// though the buffer is at capacity.
	f.coord.ProbeDown()
	if m.hints.Len() != 4 {
		t.Fatalf("failed replay lost hints: %d left, want 4", m.hints.Len())
	}
	st := m.hints.Stats()
	if st.Requeued != 4 {
		t.Fatalf("requeued %d, want 4 (stats %+v)", st.Requeued, st)
	}
}

// TestMemberHealthConcurrent trips one member and brings it back over
// and over — by call failures and by MarkDown, back up by probe and by
// MarkDown — while readers take MemberStats and run the demotion check.
// The coordinator clock is held at 1000 and DemoteAfter is 500, so every
// down episode starts at the readers' now: a nonzero DownFor or any
// demotion means a reader paired a Down with an earlier episode's trip
// record, and a Down that disagrees with Health means the two were read
// from different states.
func TestMemberHealthConcurrent(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	c := f.coord
	c.EnableSelfHeal(SelfHealConfig{RecoverAfter: 1, DemoteAfter: 500})
	c.advanceClock(1000)
	heal := c.heal.Load()
	m := c.members["n1"]
	errCall := errors.New("injected call failure")

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				c.MarkDown("n1", true)
			} else {
				for range breakerThreshold {
					c.noteCall(m, errCall)
				}
			}
			if i%4 < 2 {
				c.MarkDown("n1", false)
			} else {
				c.ProbeDown()
			}
		}
	}()
	go func() { // stats reader
		defer wg.Done()
		for !stop.Load() {
			for _, ms := range c.MemberStats() {
				if ms.DownFor != 0 {
					t.Errorf("%s: DownFor %v on a clock that never moved", ms.Name, ms.DownFor)
					return
				}
				if (ms.Down && ms.Health == HealthUp) || (!ms.Down && ms.Health == HealthDown) {
					t.Errorf("%s: torn snapshot Down=%v Health=%v", ms.Name, ms.Down, ms.Health)
					return
				}
			}
		}
	}()
	go func() { // demotion checker
		defer wg.Done()
		for !stop.Load() {
			c.checkDemotions(heal, 1000)
		}
	}()
	wg.Wait()
	if d, fails := heal.demotions.Load(), heal.demotionFailures.Load(); d != 0 || fails != 0 {
		t.Fatalf("%d demotions (%d failed) of a member down for 0 of 500 units", d, fails)
	}
	if got := c.Nodes(); len(got) != 3 {
		t.Fatalf("nodes %v after the run, want all 3", got)
	}
}

// TestMemberHealthStep walks every (state, event) pair of a member's
// health word through the transition table. The expected rows come
// from the documented rules (README "Liveness detection", the
// SelfHealConfig fields, noteCall and noteBeat), not from next itself:
// up(c, b) is an up member with c consecutive failed calls and b missed
// beats, down(p) a down member with p consecutive clean probes; a
// failed-call run of 3 (breakerThreshold) or a missed-beat run of
// SuspectAfter trips the member, K (RecoverAfter, 1 without
// self-healing) clean probes in a row bring it back up.
func TestMemberHealthStep(t *testing.T) {
	up := func(c, b int) hstate { return hstate(c) | hstate(b)<<16 }
	down := func(p int) hstate { return hDown | hstate(p) }
	healLimits := func(cfg SelfHealConfig) healthLimits {
		m, _ := linearNode("n1", 1)
		c, err := NewReplicated(0, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		c.EnableSelfHeal(cfg)
		return limits(c.heal.Load())
	}
	def := healLimits(SelfHealConfig{})                     // SuspectAfter 3, K 2
	suspect1 := healLimits(SelfHealConfig{SuspectAfter: 1}) // K 2
	manual := limits(nil)                                   // K 1
	if def != (healthLimits{beats: 3, probes: 2}) || suspect1.beats != 1 || manual.probes != 1 {
		t.Fatalf("limits: default %+v, SuspectAfter 1 %+v, manual %+v", def, suspect1, manual)
	}
	lowered := healthLimits{beats: 3, probes: 2} // a run left above a threshold EnableSelfHeal lowered

	events := [...]healthEvent{evCallOK, evCallFailed, evBeatOK, evBeatFailed, evProbeOK, evProbeFailed, evMarkDown, evMarkUp}
	names := [...]string{"call ok", "call failed", "beat ok", "beat failed", "probe ok", "probe failed", "mark down", "mark up"}
	rows := []struct {
		name   string
		lim    healthLimits
		from   hstate
		health Health
		// by event: call ok, call failed, beat ok, beat failed,
		// probe ok, probe failed, mark down, mark up
		want [8]hstate
	}{
		// Row up(c, b) of the README table.
		{"up", def, up(0, 0), HealthUp,
			[8]hstate{up(0, 0), up(1, 0), up(0, 0), up(0, 1), up(0, 0), up(0, 0), down(0), up(0, 0)}},
		{"up, 1 failed call", def, up(1, 0), HealthUp,
			[8]hstate{up(0, 0), up(2, 0), up(1, 0), up(1, 1), up(1, 0), up(1, 0), down(0), up(0, 0)}},
		{"up, 2 failed calls: the 3rd trips", def, up(2, 0), HealthUp,
			[8]hstate{up(0, 0), down(0), up(2, 0), up(2, 1), up(2, 0), up(2, 0), down(0), up(0, 0)}},
		{"suspect, 1 missed beat", def, up(0, 1), HealthSuspect,
			[8]hstate{up(0, 0), up(1, 1), up(0, 0), up(0, 2), up(0, 1), up(0, 1), down(0), up(0, 0)}},
		{"suspect, 2 missed beats: the 3rd trips", def, up(0, 2), HealthSuspect,
			[8]hstate{up(0, 0), up(1, 2), up(0, 0), down(0), up(0, 2), up(0, 2), down(0), up(0, 0)}},
		{"suspect, both runs live: a beat ok keeps the failed calls", def, up(2, 2), HealthSuspect,
			[8]hstate{up(0, 0), down(0), up(2, 0), down(0), up(2, 2), up(2, 2), down(0), up(0, 0)}},
		{"up, SuspectAfter 1: the 1st missed beat trips", suspect1, up(0, 0), HealthUp,
			[8]hstate{up(0, 0), up(1, 0), up(0, 0), down(0), up(0, 0), up(0, 0), down(0), up(0, 0)}},
		{"up, manual mode", manual, up(1, 0), HealthUp,
			[8]hstate{up(0, 0), up(2, 0), up(1, 0), up(1, 1), up(1, 0), up(1, 0), down(0), up(0, 0)}},
		{"suspect, beat run past a lowered SuspectAfter", lowered, up(1, 4), HealthSuspect,
			[8]hstate{up(0, 0), up(2, 4), up(1, 0), down(0), up(1, 4), up(1, 4), down(0), up(0, 0)}},
		// Row down(p) of the README table.
		{"down", def, down(0), HealthDown,
			[8]hstate{down(0), down(0), down(0), down(0), down(1), down(0), down(0), up(0, 0)}},
		{"suspect, 1 clean probe of K 2: the 2nd recovers", def, down(1), HealthSuspect,
			[8]hstate{down(1), down(1), down(1), down(1), up(0, 0), down(0), down(1), up(0, 0)}},
		{"down, manual mode: K 1, the 1st clean probe recovers", manual, down(0), HealthDown,
			[8]hstate{down(0), down(0), down(0), down(0), up(0, 0), down(0), down(0), up(0, 0)}},
		{"suspect, probe run past a lowered K", lowered, down(3), HealthSuspect,
			[8]hstate{down(3), down(3), down(3), down(3), up(0, 0), down(0), down(3), up(0, 0)}},
	}
	for _, row := range rows {
		if got := row.from.health(); got != row.health {
			t.Errorf("%s: health %v, want %v", row.name, got, row.health)
		}
		for i, ev := range events {
			if got := row.from.next(ev, row.lim); got != row.want[i] {
				t.Errorf("%s, %s: got %#x, want %#x", row.name, names[i], uint64(got), uint64(row.want[i]))
			}
		}
	}
}
