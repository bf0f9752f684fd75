package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// TestMigrationCrashResumeSourceDeath is the coordinator-crash drill:
// the run halts between copying and committed (one range already dual,
// the rest untouched), the exported source of a pending range dies,
// and Resume must still complete — falling through to the surviving
// replica — with every answer bit-identical to the no-migration
// reference. Concurrent queries run across the whole migration so the
// dual-routing paths race the engine under -race.
func TestMigrationCrashResumeSourceDeath(t *testing.T) {
	const n, rf = 150, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.coord.Position(locserv.ObjectID(fmt.Sprintf("obj-%04d", i%n)), 5)
			f.coord.Nearest(geo.Pt(float64(i%7)*100, 50), 5, 5)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	// Crash exactly once: after the first range lands its copy and goes
	// dual, before anything else moves.
	errCrash := errors.New("injected coordinator crash")
	var duals atomic.Int32
	f.coord.migHook = func(kind string, lo, hi uint64, phase MigrationPhase) error {
		if phase == MigDual && duals.Add(1) == 1 {
			return errCrash
		}
		return nil
	}

	node4 := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	m4, _ := NewFaultyMember("n4", node4)
	mig, err := f.coord.BeginAddNode(m4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); !errors.Is(err, errCrash) {
		t.Fatalf("Wait() = %v, want the injected crash", err)
	}
	st := f.coord.MigrationStats()
	if !st.Active || !st.Halted || st.Kind != migJoin || st.Target != "n4" {
		t.Fatalf("halted stats = %+v", st)
	}
	if st.RangesDual != 1 || st.RangesCommitted != 0 {
		t.Fatalf("halted mid-copy stats = %+v, want exactly one dual range", st)
	}
	// The halted dual window still serves the previous ring's answers.
	assertSnapshotEqual(t, "halted dual window", before, snapshot(f.coord, n, 5))
	// Another membership change cannot start over a halted run.
	if _, err := f.coord.BeginRemoveNode(f.names[0]); !errors.Is(err, ErrMigrationHalted) {
		t.Fatalf("Begin over a halted run = %v, want ErrMigrationHalted", err)
	}

	// Kill the member the next pending range would export from.
	victim := ""
	for _, r := range mig.run.ranges {
		if r.phase.Load() == MigPlanned && len(r.sources) > 0 {
			victim = r.sources[0]
			break
		}
	}
	if victim == "" {
		t.Fatal("no pending range left to crash-test the source fallback")
	}
	f.injectors[victim].Fail()

	f.coord.migHook = nil // the crashed coordinator restarts hook-less
	if err := mig.Resume(); err != nil {
		t.Fatalf("Resume() with a dead source = %v", err)
	}
	st = f.coord.MigrationStats()
	if st.Active || st.Migrations != 1 || st.Resumes != 1 {
		t.Fatalf("post-resume stats = %+v", st)
	}
	if node4.Service().Len() == 0 {
		t.Fatal("resumed join moved no replicas onto the new member")
	}
	assertSnapshotEqual(t, "after crash-resume join", before, snapshot(f.coord, n, 5))
}

// TestMigrationAbortRollsBackImportFailure wedges the joining member's
// write path so the import itself fails mid-range, then aborts: the
// rollback must leave membership, every replica and every answer
// bit-identical to the no-migration reference, and the recovered
// member must be able to rejoin cleanly.
func TestMigrationAbortRollsBackImportFailure(t *testing.T) {
	const n, rf = 90, 2
	f := newReplicatedFixture(t, 3, rf)
	seedReplicated(t, f, n)
	before := snapshot(f.coord, n, 4)

	node4 := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	m4, inj4 := NewFaultyMember("nx", node4)
	inj4.FailDeliver()
	mig, err := f.coord.BeginAddNode(m4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err == nil {
		t.Fatal("importing into a wedged member must halt the run")
	}
	st := f.coord.MigrationStats()
	if !st.Halted || st.HaltCause == "" {
		t.Fatalf("halted stats = %+v", st)
	}
	assertSnapshotEqual(t, "halted before abort", before, snapshot(f.coord, n, 4))

	if err := f.coord.AbortMigration(); err != nil {
		t.Fatal(err)
	}
	if nodes := f.coord.Nodes(); len(nodes) != 3 {
		t.Fatalf("abort left membership %v", nodes)
	}
	for _, name := range f.coord.Nodes() {
		if name == "nx" {
			t.Fatal("aborted join left the member in the cluster")
		}
	}
	if got := node4.Service().Len(); got != 0 {
		t.Fatalf("abort left %d partial objects on the add", got)
	}
	total := 0
	for _, ms := range f.coord.MemberStats() {
		total += ms.Node.Objects
	}
	if total != n*rf {
		t.Fatalf("abort changed the replica population: %d of %d copies", total, n*rf)
	}
	assertSnapshotEqual(t, "after abort", before, snapshot(f.coord, n, 4))
	st = f.coord.MigrationStats()
	if st.Active || st.Aborts != 1 || st.Migrations != 0 {
		t.Fatalf("post-abort stats = %+v", st)
	}

	// The same member, recovered, joins cleanly: nothing of the aborted
	// attempt lingers.
	inj4.Recover()
	if err := f.coord.AddNode(m4); err != nil {
		t.Fatal(err)
	}
	if node4.Service().Len() == 0 {
		t.Fatal("recovered rejoin moved nothing")
	}
	assertSnapshotEqual(t, "after recovered rejoin", before, snapshot(f.coord, n, 4))
}

// TestDeliveryCountsDualRangeOwners: mid-migration a record is routed
// to its ring owners plus the dual-range adds, and delivery must judge
// "reached no live replica" over that same owner set. With a dual range
// published, both of its ring owners failing and the joining member
// healthy, the records landed — on the join — so Send must not fail and
// DeliverRecords must count them applied.
func TestDeliveryCountsDualRangeOwners(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, 30)

	// Halt the join right after its first range goes dual.
	errHalt := errors.New("halt after the first dual range")
	var duals atomic.Int32
	f.coord.migHook = func(kind string, lo, hi uint64, phase MigrationPhase) error {
		if phase == MigDual && duals.Add(1) == 1 {
			return errHalt
		}
		return nil
	}
	node4 := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	m4, _ := NewFaultyMember("n4", node4)
	mig, err := f.coord.BeginAddNode(m4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); !errors.Is(err, errHalt) {
		t.Fatalf("Wait() = %v, want the injected halt", err)
	}
	f.coord.mu.RLock()
	if len(f.coord.duals) != 1 || !containsName(f.coord.duals[0].adds, "n4") {
		f.coord.mu.RUnlock()
		t.Fatalf("want one published dual range adding n4, have %+v", f.coord.duals)
	}
	dual := f.coord.duals[0]
	f.coord.mu.RUnlock()

	// Fresh ids inside the dual range (one elementary arc, so they share
	// their ring owners), in two batches: one per delivery entry point.
	var recs []wire.Record
	for i := 0; len(recs) < 6; i++ {
		if i == 1<<20 {
			t.Fatal("no id hashes into the dual range")
		}
		id := fmt.Sprintf("dual-%d", i)
		if wire.InKeyRange(wire.KeyHash(id), dual.lo, dual.hi) {
			rec := repRecord(0, 1)
			rec.ID = id
			recs = append(recs, rec)
		}
	}
	for _, owner := range f.coord.Owners(locserv.ObjectID(recs[0].ID)) {
		f.injectors[owner].Fail()
	}

	if err := f.coord.Send(1, recs[:3]); err != nil {
		t.Fatalf("Send with the dual-add owner healthy: %v", err)
	}
	applied, _ := f.coord.DeliverRecords(recs[3:])
	if applied != 3 {
		t.Fatalf("DeliverRecords applied %d of 3 records the joining member accepted", applied)
	}
	for _, rec := range recs {
		if !node4.Service().Contains(locserv.ObjectID(rec.ID)) {
			t.Fatalf("%s did not land on the joining member", rec.ID)
		}
	}
}
