// Live migration: the zero-downtime half of membership changes. A
// join, leave or reweight is one migration run — the preference-list
// diff split into elementary ring arcs, moved one bounded range at a
// time by a per-range state machine:
//
//	planned → copying → dual → committed
//	                  ↘ (Abort) → aborted
//
// Every range of a run is in transition from the moment the run opens:
// the router dual-writes it (old and new owners both receive every
// record — safe because replicas are idempotent per (id, Seq)) and
// double-reads it (the new owners join the scatter/owner sets, merged
// on freshest Seq), so the coordinator's routing lock is only ever held
// for O(1) pointer swaps: publishing the plan's dual routes, and the
// final ring swap. Data movement — export, import, drop — happens
// outside every routing lock, and ingest and queries proceed at full
// rate throughout.
//
// Drops are deferred to the final commit: the old owners keep their
// copies and keep receiving dual writes for the whole run, so at any
// point before commit the previous ring is still fully served — Abort
// is an exact rollback (every range is removed from every add, copied
// or not, since dual writes reach them all; the ring is untouched). The
// run's state lives in the coordinator, so a halt mid-migration (an
// error, or the crash hook in tests) strands nothing: a fan-in peer
// that steals the lease resumes it from the first incomplete range
// (re-copying is idempotent), Abort rolls back.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// MigrationPhase is one step of a range's migration state machine.
type MigrationPhase int32

const (
	// MigPlanned: the range is dual-routed, nothing has been copied.
	MigPlanned MigrationPhase = iota
	// MigCopying: the range's snapshot export is being imported on the
	// new owners.
	MigCopying
	// MigDual: the snapshot landed and was verified; the range is served
	// by old and new owners alike until the final commit.
	MigDual
	// MigCommitted: the ring swapped; the new owners serve alone.
	MigCommitted
	// MigAborted: the run was rolled back; the old owners serve alone.
	MigAborted
)

// String returns the phase name the /cluster endpoint reports.
func (p MigrationPhase) String() string {
	return [...]string{"planned", "copying", "dual", "committed", "aborted"}[p]
}

// migrateChunk bounds one import delivery, so a big range never turns
// into one unbounded Deliver call.
const migrateChunk = 1024

var (
	// ErrMigrationBusy: a migration is executing right now; retry once it
	// completes or halts.
	ErrMigrationBusy = errors.New("cluster: a migration is already running")
	// ErrMigrationHalted: a halted migration holds the cluster in dual
	// routing; Resume or Abort it before starting another.
	ErrMigrationHalted = errors.New("cluster: a halted migration is pending (resume or abort it)")
	// ErrNoMigration: Abort found no halted migration to act on.
	ErrNoMigration = errors.New("cluster: no halted migration")
)

// rangeState is one arc of the migration plan plus its state-machine
// position. Phase and the copied-record count are atomics so
// MigrationStats can snapshot a run the engine is executing.
type rangeState struct {
	arcMove
	phase   atomicPhase
	records atomic.Int64
}

// migrationRun is one membership change in flight (or halted): the plan
// plus the driver's per-range progress. The engine goroutine owns it
// under Coordinator.migMu; err is guarded by mu so stats can report a
// halt cause.
type migrationRun struct {
	*migrationPlan
	ranges []*rangeState

	mu  sync.Mutex
	err error // why the run halted; nil while progressing
}

// newRun wraps an entered plan, whose dual routes are all published,
// for driving.
func newRun(plan *migrationPlan) *migrationRun {
	run := &migrationRun{migrationPlan: plan}
	for _, mv := range plan.moves {
		run.ranges = append(run.ranges, &rangeState{arcMove: mv})
	}
	return run
}

func (run *migrationRun) setErr(err error) {
	run.mu.Lock()
	run.err = err
	run.mu.Unlock()
}

func (run *migrationRun) haltCause() error {
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.err
}

func (run *migrationRun) recordsMoved() int64 {
	var total int64
	for _, r := range run.ranges {
		total += r.records.Load()
	}
	return total
}

// atomicPhase is an atomically updated MigrationPhase.
type atomicPhase struct{ v atomic.Int32 }

func (a *atomicPhase) Load() MigrationPhase   { return MigrationPhase(a.v.Load()) }
func (a *atomicPhase) Store(p MigrationPhase) { a.v.Store(int32(p)) }

// migrationHook observes every per-range phase transition (tests only).
// Returning an error halts the run exactly there — the simulated
// coordinator crash the resume/rollback tests drive.
type migrationHook func(kind string, lo, hi uint64, phase MigrationPhase) error

// CrashMigrationAfterCopies arms a one-shot driver crash: the next
// migration drive on this coordinator halts with an error when its n-th
// range copy starts. It is the chaos-injection surface of the fan-in
// drill (drsim -exp fanin): the coordinator driving a live join is
// "killed" mid-copy, the halted run stays resident under dual routing,
// and a lease-stealing peer coordinator resumes it from the replicated
// membership log. Arm it before Begin*; the hook fires exactly once.
func (c *Coordinator) CrashMigrationAfterCopies(n int) {
	copies := new(atomic.Int32)
	c.migHook = func(kind string, lo, hi uint64, phase MigrationPhase) error {
		if phase == MigCopying && copies.Add(1) == int32(n) {
			return fmt.Errorf("cluster: injected driver crash at copy %d", n)
		}
		return nil
	}
}

// Migration is the handle on one membership migration started by
// BeginAddNode, BeginRemoveNode or BeginReweight. The engine runs in
// the background; Wait blocks for the initial drive's outcome. A run
// that halted (Wait returned an error) stays resident — dual routing
// keeps both owner sets serving — until a lease-stealing peer resumes
// it or Abort rolls it back.
type Migration struct {
	c    *Coordinator
	run  *migrationRun
	done chan struct{}
	err  error
}

// Wait blocks until the initial drive finishes and returns its outcome:
// nil once the ring swapped, an error if the run halted.
func (m *Migration) Wait() error {
	<-m.done
	return m.err
}

// Abort rolls a halted migration back: dual routing stops, every range
// is removed from the new owners that dual writes or copies reached,
// and the ring stays exactly as it was.
func (m *Migration) Abort() error { return m.c.abortRun(m.run) }

// BeginAddNode starts a live join migration: the member enters the
// scatter set immediately, imports its ranges one at a time under dual
// routing, and owns them once the final commit swaps the ring. Queries
// and ingest proceed at full rate throughout.
func (c *Coordinator) BeginAddNode(m *Member) (*Migration, error) {
	if m == nil || m.Node == nil {
		return nil, fmt.Errorf("cluster: nil member")
	}
	return c.beginMigration(beginRecord(migKindJoin, m.Name, m.Addr, nil), m)
}

// BeginRemoveNode starts a live leave migration: every range the member
// owns a replica of is imported by its new owner under dual routing —
// sourced from the leaving member, or any surviving replica when it is
// down — and the member leaves the cluster at the final commit.
func (c *Coordinator) BeginRemoveNode(name string) (*Migration, error) {
	return c.beginMigration(beginRecord(migKindLeave, name, "", nil), nil)
}

// BeginReweight starts a live reweight migration onto new per-member
// vnode counts (see BalancedWeights); ranges whose preference lists
// change move exactly like a join's.
func (c *Coordinator) BeginReweight(weights map[string]int) (*Migration, error) {
	return c.beginMigration(beginRecord(migKindReweight, "", "", weights), nil)
}

// AddNode joins a member to the cluster through a live migration and
// blocks until it commits. On failure the partial run is rolled back —
// membership, routing and data are exactly as before the call.
func (c *Coordinator) AddNode(m *Member) error {
	return c.runSync(func() (*Migration, error) { return c.BeginAddNode(m) })
}

// RemoveNode drains a member through a live migration and removes it,
// blocking until the commit. On failure the partial run is rolled back
// and the member stays.
func (c *Coordinator) RemoveNode(name string) error {
	return c.runSync(func() (*Migration, error) { return c.BeginRemoveNode(name) })
}

// Reweight migrates the cluster onto new per-member vnode counts —
// weighted consistent hashing driven by observed load (see
// BalancedWeights) — blocking until the commit. A failure rolls back to
// the previous ring.
func (c *Coordinator) Reweight(weights map[string]int) error {
	return c.runSync(func() (*Migration, error) { return c.BeginReweight(weights) })
}

// runSync is the synchronous membership surface: begin, wait, and on a
// halt roll back — so AddNode/RemoveNode/Reweight keep their historical
// all-or-nothing contract while riding the non-blocking engine.
func (c *Coordinator) runSync(begin func() (*Migration, error)) error {
	mig, err := begin()
	if err != nil {
		return err
	}
	if err := mig.Wait(); err != nil {
		if aerr := mig.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		return err
	}
	return nil
}

// beginMigration opens the run of the change begin describes — a
// LogBegin record, the form it is replicated in — and starts the engine
// in the background. migMu is acquired here and released by the engine
// goroutine when the drive finishes or halts; TryLock keeps membership
// ops non-blocking — concurrent attempts fail fast with
// ErrMigrationBusy and retry (the self-heal loops do exactly that on
// their next tick).
func (c *Coordinator) beginMigration(begin wire.LogRecord, joining *Member) (*Migration, error) {
	if !c.migMu.TryLock() {
		return nil, ErrMigrationBusy
	}
	plan, err := c.beginPlan(begin, joining)
	if err != nil {
		c.migMu.Unlock()
		return nil, err
	}
	return c.startRun(plan), nil
}

// startRun makes plan the resident run and drives it in the background;
// callers hold migMu, which the engine goroutine releases when the
// drive finishes or halts.
func (c *Coordinator) startRun(plan *migrationPlan) *Migration {
	run := newRun(plan)
	c.mig.Store(run)
	m := &Migration{c: c, run: run, done: make(chan struct{})}
	go func() {
		m.err = c.drive(run)
		// Release before signalling so a caller sequencing Wait() → next
		// Begin* never sees a stale lock.
		c.migMu.Unlock()
		close(m.done)
	}()
	return m
}

// beginPlan opens the driver's plan; callers hold migMu. With fan-in
// enabled the begin is fenced and replicated: it requires the lease
// (ErrNotLeaseHolder otherwise — the peer holding it drives membership
// right now), refuses to start over a peer's open run, and appends the
// Begin record before any data moves. A Begin that cannot be appended
// rolls the opened plan back and removes what its dual routes wrote.
func (c *Coordinator) beginPlan(begin wire.LogRecord, joining *Member) (*migrationPlan, error) {
	if c.mig.Load() != nil {
		return nil, ErrMigrationHalted
	}
	f := c.fanin.Load()
	if f != nil {
		if !f.holdLease(c.now()) {
			return nil, ErrNotLeaseHolder
		}
		if f.openRun() != nil {
			// A begun, uncommitted run is on the log (ours halted, or a
			// dead peer's awaiting resume): it must finish first.
			return nil, ErrMigrationHalted
		}
	}
	plan, err := c.openPlan(begin, joining)
	if err != nil || f == nil {
		return plan, err
	}
	if begin, err = f.appendMigrationRecord(begin); err != nil {
		c.undo(plan)
		return nil, err
	}
	f.mu.Lock()
	f.openLogged(plan, begin.Run)
	f.mu.Unlock()
	return plan, nil
}

// openPlan is the begin transition both the driver and a fan-in
// follower take: derive the plan from the table and enter it, which
// publishes every dual route of the plan at once. A parked (auto-
// demoted) identity rejoins as a fresh member: its old replicas were
// migrated away at demotion, so nothing of the previous incarnation is
// assumed.
func (c *Coordinator) openPlan(begin wire.LogRecord, joining *Member) (*migrationPlan, error) {
	plan, err := c.plan(begin, joining)
	if err == nil {
		err = c.enter(plan)
	}
	if err != nil {
		return nil, err
	}
	if heal := c.heal.Load(); heal != nil && plan.joining != nil {
		heal.unpark(plan.target)
	}
	return plan, nil
}

// drive executes the plan: every incomplete range is copied and
// verified, one at a time, then the final commit swaps the ring. Any
// error halts the run exactly where it is — nothing rolls back until
// Abort, and dual routing keeps both owner sets serving — so a resume
// can continue from the first incomplete range.
// Callers hold migMu.
func (c *Coordinator) drive(run *migrationRun) error {
	for _, r := range run.ranges {
		if r.phase.Load() == MigDual {
			continue // already copied and verified before a halt
		}
		if err := c.migrateRange(run, r); err != nil {
			run.setErr(err)
			return err
		}
	}
	if err := c.commitRun(run); err != nil {
		// A fenced commit: the lease moved while we copied. The run halts
		// here — dual routing keeps serving — and the thief's own close
		// record resolves it everywhere, this coordinator included.
		run.setErr(err)
		return err
	}
	return nil
}

// migrateRange moves one arc onto its new owners: snapshot-export from
// the first live previous owner, import on each add in bounded chunks,
// verify the applied counts. The arc was dual-routed when the run
// opened, before any export, which closes the copy/live-write race: any
// record sent since reaches the adds as a dual write, and the replicas'
// per-(id, Seq) gates order the snapshot against the live stream.
func (c *Coordinator) migrateRange(run *migrationRun, r *rangeState) error {
	r.phase.Store(MigCopying)
	if err := c.callHook(run, r); err != nil {
		return err
	}
	if len(r.adds) > 0 {
		recs, ids, err := c.exportRange(r)
		if err != nil {
			return err
		}
		for _, target := range r.adds {
			to := c.lookup(target)
			if to == nil {
				return fmt.Errorf("cluster: handoff (%x,%x]: unknown target %q", r.lo, r.hi, target)
			}
			if err := c.importRange(to, target, r, recs, ids); err != nil {
				return err
			}
		}
		r.records.Store(int64(len(recs)))
	}
	r.phase.Store(MigDual)
	return c.callHook(run, r)
}

func (c *Coordinator) callHook(run *migrationRun, r *rangeState) error {
	if c.migHook == nil {
		return nil
	}
	return c.migHook(run.kind, r.lo, r.hi, r.phase.Load())
}

// exportRange snapshots the arc from the first previous owner that is
// known, up and answering — with R >= 2, losing a node does not strand
// its ranges.
func (c *Coordinator) exportRange(r *rangeState) ([]wire.Record, []locserv.ObjectID, error) {
	var lastErr error
	for _, s := range r.sources {
		from := c.lookup(s)
		if from == nil {
			lastErr = fmt.Errorf("unknown member %q", s)
			continue
		}
		if from.state().down() {
			lastErr = fmt.Errorf("member %q is down", s)
			continue
		}
		recs, ids, err := from.Node.Export(r.lo, r.hi)
		if err != nil {
			from.errors.Add(1)
			lastErr = err
			continue
		}
		return recs, ids, nil
	}
	return nil, nil, fmt.Errorf("cluster: handoff (%x,%x]: no live source in %v: %w",
		r.lo, r.hi, r.sources, lastErr)
}

// importRange lands the snapshot on one add: register the unreported
// ids, deliver the records in bounded chunks, verify every record was
// accepted. Reports keep their protocol sequence numbers, so a dual
// write that outran the snapshot wins the replica's per-Seq gate.
func (c *Coordinator) importRange(to *memberState, target string, r *rangeState, recs []wire.Record, ids []locserv.ObjectID) error {
	for _, id := range ids {
		if err := to.Node.Register(id); err != nil {
			to.errors.Add(1)
			return fmt.Errorf("cluster: register %q on %s: %w", id, target, err)
		}
	}
	for start := 0; start < len(recs); start += migrateChunk {
		end := start + migrateChunk
		if end > len(recs) {
			end = len(recs)
		}
		chunk := recs[start:end]
		applied, err := to.Node.Deliver(chunk)
		if err == nil && applied != len(chunk) {
			err = fmt.Errorf("target applied %d of %d records", applied, len(chunk))
		}
		if err != nil {
			to.errors.Add(1)
			return fmt.Errorf("cluster: import (%x,%x] into %s: %w", r.lo, r.hi, target, err)
		}
		to.records.Add(int64(len(chunk)))
	}
	return nil
}

// commitRun is the final swap: the table's commit moves the router onto
// the next ring under one brief write lock — pointer work, no data
// movement. The superseded copies are dropped outside the lock: they
// were kept fresh by dual writes the whole run, so until each drop
// lands the extra replica merely answers scatter queries in duplicate
// (deduplicated by the freshest-Seq merge).
//
// A logged run's Commit record is appended (and pushed) before any of
// that: closeRun re-verifies the lease through a quorum round, so a
// driver deposed mid-copy returns ErrNotLeaseHolder here with its
// routing state untouched — never a divergent ring swap.
func (c *Coordinator) commitRun(run *migrationRun) error {
	if run.logRun != 0 {
		if err := c.fanin.Load().closeRun(run.logRun, wire.LogCommit); err != nil {
			return err
		}
	}
	drops := c.commit(run.migrationPlan)
	for _, r := range run.ranges {
		r.phase.Store(MigCommitted)
	}
	for _, d := range drops {
		c.dropRange(d.m, d.lo, d.hi)
	}
	moved := run.recordsMoved()
	c.migCommitted.Add(1)
	c.migRecords.Add(moved)
	c.setMigOutcome(fmt.Sprintf("committed %s: %d ranges, %d records", run.label(), len(run.ranges), moved))
	c.mig.Store(nil)
	return nil
}

// abortRun rolls the halted run back. Dual routing stops first — under
// the same brief lock a join's member leaves the scatter set — so no
// new write can land on an add while its ranges are removed; the old
// owners stayed fresh through dual writes, so the previous ring serves
// every answer exactly as before the run.
func (c *Coordinator) abortRun(run *migrationRun) error {
	if !c.migMu.TryLock() {
		return ErrMigrationBusy
	}
	defer c.migMu.Unlock()
	cur := c.mig.Load()
	if cur == nil || (run != nil && cur != run) {
		return ErrNoMigration
	}
	run = cur
	// A logged run's Abort record goes first, fenced like a commit's: a
	// deposed coordinator must not roll routing back locally while the
	// lease holder may be resuming the run everywhere else.
	if run.logRun != 0 {
		if err := c.fanin.Load().closeRun(run.logRun, wire.LogAbort); err != nil {
			return err
		}
	}
	for _, r := range run.ranges {
		r.phase.Store(MigAborted)
	}
	c.undo(run.migrationPlan)
	c.migAborted.Add(1)
	cause := ""
	if err := run.haltCause(); err != nil {
		cause = ": " + err.Error()
	}
	c.setMigOutcome(fmt.Sprintf("aborted %s%s", run.label(), cause))
	c.mig.Store(nil)
	return nil
}

// undo rolls an entered plan back and removes every range from every
// add: the dual routes reached them all from the moment the plan
// opened.
func (c *Coordinator) undo(p *migrationPlan) {
	for _, d := range c.rollback(p) {
		c.dropRange(d.m, d.lo, d.hi)
	}
}

// dropRange removes every object in (lo, hi] from m — the superseded
// copy after a commit, or an add's range after an abort. The copies
// are replicated on the serving owner set, so failures only leak a
// stale replica (counted, not fatal).
func (c *Coordinator) dropRange(m *memberState, lo, hi uint64) {
	recs, ids, err := m.Node.Export(lo, hi)
	if err != nil {
		m.errors.Add(1)
		return
	}
	for i := range recs {
		ids = append(ids, locserv.ObjectID(recs[i].ID))
	}
	for _, id := range ids {
		if err := m.Node.Deregister(id); err != nil {
			m.errors.Add(1)
		}
	}
}

func (c *Coordinator) setMigOutcome(s string) { c.migLast.Store(&s) }

// MigrationStats is a snapshot of the migration engine: the run in
// flight (or halted), its per-range state-machine positions, and the
// lifetime counters.
type MigrationStats struct {
	// Active reports a run in flight or halted; Kind is join, leave or
	// reweight, Target the member joining/leaving ("" for reweight).
	Active bool   `json:"active"`
	Kind   string `json:"kind,omitempty"`
	Target string `json:"target,omitempty"`
	// Halted reports a run stopped mid-flight awaiting a resume or Abort;
	// HaltCause is why.
	Halted    bool   `json:"halted,omitempty"`
	HaltCause string `json:"halt_cause,omitempty"`
	// Per-range state machine counts for the active run.
	Ranges          int `json:"ranges,omitempty"`
	RangesPending   int `json:"ranges_pending,omitempty"`
	RangesCopying   int `json:"ranges_copying,omitempty"`
	RangesDual      int `json:"ranges_dual,omitempty"`
	RangesCommitted int `json:"ranges_committed,omitempty"`
	// RecordsMoved counts the records copied by the active run so far.
	RecordsMoved int64 `json:"records_moved,omitempty"`

	// Lifetime counters: committed runs, aborted runs, resumes, total
	// records moved, and the longest routing-lock hold the engine ever
	// took (nanoseconds) — the O(1)-swap proof.
	Migrations        int64 `json:"migrations"`
	Aborts            int64 `json:"aborts"`
	Resumes           int64 `json:"resumes"`
	TotalRecordsMoved int64 `json:"total_records_moved"`
	MaxSwapNanos      int64 `json:"max_swap_ns"`
	// LastOutcome describes the most recently finished run.
	LastOutcome string `json:"last_outcome,omitempty"`
}

// MigrationStats snapshots the migration engine without blocking behind
// a running migration.
func (c *Coordinator) MigrationStats() MigrationStats {
	st := MigrationStats{
		Migrations:        c.migCommitted.Load(),
		Aborts:            c.migAborted.Load(),
		Resumes:           c.migResumed.Load(),
		TotalRecordsMoved: c.migRecords.Load(),
		MaxSwapNanos:      c.maxHold.Load(),
	}
	if s := c.migLast.Load(); s != nil {
		st.LastOutcome = *s
	}
	run := c.mig.Load()
	if run == nil {
		return st
	}
	st.Active = true
	st.Kind, st.Target = run.kind, run.target
	if err := run.haltCause(); err != nil {
		st.Halted = true
		st.HaltCause = err.Error()
	}
	st.Ranges = len(run.ranges)
	for _, r := range run.ranges {
		switch r.phase.Load() {
		case MigPlanned:
			st.RangesPending++
		case MigCopying:
			st.RangesCopying++
		case MigDual:
			st.RangesDual++
		case MigCommitted:
			st.RangesCommitted++
		}
		st.RecordsMoved += r.records.Load()
	}
	return st
}
