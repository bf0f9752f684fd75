// Multi-coordinator fan-in: N stateless coordinators front the same
// nodes by replicating membership through a tiny ordered record log
// (wire.LogRecord) instead of electing a primary. Every membership
// event — a migration run's begin/commit/abort, a demoted identity
// parking, a self-heal lease changing hands — is one record, totally
// ordered by (Epoch, Origin): each appender stamps 1 + the highest
// epoch it has seen and concurrent appends tie-break on the
// coordinator name, a deterministic sequencer with no Raft.
//
// Logs converge by gossip: a push carries the sender's whole compacted
// log and the response carries the receiver's after merging, so one
// round trip makes any two coordinators equal. Applying is
// deterministic too: a sweep walks the log in total order, folding
// lease records into a pure (holder, tenure-epoch, until) state and
// dispatching each unseen migration record against the fold *at its
// position* — so every coordinator publishes the same dual-routing
// entries and swaps the same ring pointers, and routes identically
// throughout a migration (dual writes and double reads included).
//
// The lease fences the self-heal loops, and lease decisions are
// quorum-gated: acquiring or stealing requires two gossip rounds each
// acknowledged by a strict majority of the tier (the acquirer counts
// itself), so a coordinator partitioned from the majority can neither
// steal on its stale fold nor keep acting as holder — its renewals
// stop being acknowledged and it steps down once the last acked expiry
// passes. Only the holder may append migration records (each carries
// the tenure epoch it was appended under; records fenced under a
// superseded tenure are rejected everywhere), and a driver re-checks
// the lease *before* committing or aborting, so a deposed leader halts
// under dual routing instead of swapping its ring divergently. Should
// a locally-applied record still turn out fenced once the logs
// converge (possible only with >2 coordinators under partitions), the
// sweep detects it and repairs the local state (see repairLocked).
//
// On expiry the lease is stolen, and a stolen lease with an open
// (begun, uncommitted) run in the log triggers resume-from-log: the
// thief rebuilds the run from its Begin record — the dual routes are
// already published on every coordinator — re-copies its ranges
// (idempotent per (id, Seq)) and commits in a background goroutine, so
// a coordinator killed mid-copy strands nothing and the thief's Tick
// never blocks behind the copy.
//
// The log is compacted: once every peer has confirmed holding a prefix
// (per-peer cover watermarks computed from gossip responses), closed
// runs' records, superseded parkings and superseded lease renewals in
// that prefix are dropped and the compaction floor advances. The floor
// rides every gossip frame so peers count the compacted prefix as
// covered instead of stalling on records they will never see again;
// the kept skeleton (tenure starts, the newest acknowledged renewal,
// open runs) preserves the lease fold and every fence verdict exactly.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mapdr/internal/wire"
)

// ErrNotLeaseHolder: a membership change was attempted on a fan-in
// coordinator that does not hold the self-heal lease; the holder (a
// peer) drives changes right now. Retry later or on the holder.
var ErrNotLeaseHolder = errors.New("cluster: membership lease held by another coordinator")

// compactAfter is the log length that triggers compaction (when the
// peer covers allow the floor to advance). Small enough to bound
// steady-state gossip frames, large enough that unit-scale histories
// never compact and stay byte-inspectable.
const compactAfter = 64

// FanInConfig tunes a coordinator's fan-in membership replication.
// Times are transport-clock units, like SelfHealConfig's.
type FanInConfig struct {
	// LeaseFor is how long one self-heal lease tenure lasts before it
	// must be renewed (<= 0 selects 30). Renewals extend the same
	// tenure; a lease past Until is stealable.
	LeaseFor float64
	// GossipEvery is the periodic log-exchange period driven by Tick
	// (<= 0 selects 2). Appends push immediately regardless.
	GossipEvery float64
	// MemberFactory builds the local Member handle for a node another
	// coordinator joined (name and the Begin record's Addr). Defaults
	// to NewHTTPMember for a non-empty addr; required for in-process
	// clusters, whose members have no address: it returns the joined
	// node's in-process member stream (NewLocalMember or
	// NewFaultyMember).
	MemberFactory func(name, addr string) (*Member, error)
}

// logKey identifies a log slot.
type logKey struct {
	epoch  uint64
	origin string
}

// fanIn is a coordinator's fan-in state. mu guards the log and
// everything folded from it, and is always taken before (never inside)
// the routing lock; peer transports are only called with mu released.
type fanIn struct {
	c   *Coordinator
	id  string
	cfg FanInConfig

	mu       sync.Mutex
	log      []wire.LogRecord
	applied  map[logKey]bool
	maxEpoch uint64
	peers    map[string]wire.PeerTransport
	order    []string                  // peer names, sorted: deterministic gossip order
	runs     map[uint64]*migrationPlan // begun on the log, not yet closed

	// Lease fold (rebuilt by every sweep): current holder, the epoch
	// its tenure started at (the fencing token), and its expiry.
	leaseHolder string
	leaseEpoch  uint64
	leaseUntil  float64
	// acked is the newest own-lease expiry a quorum round trip has
	// confirmed: past it, a holder whose renewals go unacknowledged
	// steps down rather than act on a fold the majority may have moved
	// beyond. Meaningless with zero peers (a solo front is its own
	// quorum).
	acked float64

	// Compaction state: our floor (records at or below it were
	// confirmed tier-wide and may be dropped), per-peer cover
	// watermarks (the highest epoch through which the peer's last
	// response matched our log record for record), and the floors peers
	// shipped us.
	floor     uint64
	peerCover map[string]uint64
	peerFloor map[string]uint64

	// fencedOwn marks own-origin records the converged fold fenced
	// after they were applied locally at append time — each is repaired
	// once (see repairLocked).
	fencedOwn map[logKey]bool

	// gossipErr is the most recent gossip round's first failure ("" when
	// the round reached every peer) — the operator-visible signal that
	// replication is impaired, not just a counter.
	gossipErr string

	lastGossip float64
	haveGossip bool

	appends     atomic.Int64
	applies     atomic.Int64
	rejects     atomic.Int64
	gossips     atomic.Int64
	gossipErrs  atomic.Int64
	acquired    atomic.Int64
	denied      atomic.Int64
	steals      atomic.Int64
	resumes     atomic.Int64
	repairs     atomic.Int64
	compactions atomic.Int64
	hintsFwd    atomic.Int64
}

func (f *fanIn) leaseFor() float64 {
	if f.cfg.LeaseFor > 0 {
		return f.cfg.LeaseFor
	}
	return 30
}

func (f *fanIn) gossipEvery() float64 {
	if f.cfg.GossipEvery > 0 {
		return f.cfg.GossipEvery
	}
	return 2
}

// quorum reports whether acks successful peer round trips, plus this
// coordinator itself, form a strict majority of the npeers+1 tier.
func quorum(acks, npeers int) bool { return 2*(acks+1) > npeers+1 }

// EnableFanIn turns on multi-coordinator membership replication: this
// coordinator is named id on the shared log, accepts peer frames via
// ServePeer, and fences its membership changes (including the
// self-heal loops) behind the replicated lease. Add peers with
// AddPeerCoordinator.
func (c *Coordinator) EnableFanIn(id string, cfg FanInConfig) {
	if cfg.MemberFactory == nil {
		cfg.MemberFactory = func(name, addr string) (*Member, error) {
			if addr == "" {
				return nil, fmt.Errorf("cluster: no address for joining member %q (configure FanInConfig.MemberFactory)", name)
			}
			return NewHTTPMember(name, addr, nil), nil
		}
	}
	c.fanin.Store(&fanIn{
		c:         c,
		id:        id,
		cfg:       cfg,
		applied:   make(map[logKey]bool),
		peers:     make(map[string]wire.PeerTransport),
		runs:      make(map[uint64]*migrationPlan),
		peerCover: make(map[string]uint64),
		peerFloor: make(map[string]uint64),
		fencedOwn: make(map[logKey]bool),
	})
}

// AddPeerCoordinator registers a peer coordinator reachable over pt.
// Gossip and lease traffic flow to every registered peer. A coordinator
// refuses its own id: its own ack would count toward the lease quorum.
func (c *Coordinator) AddPeerCoordinator(name string, pt wire.PeerTransport) error {
	f := c.fanin.Load()
	if f == nil {
		return fmt.Errorf("cluster: fan-in not enabled")
	}
	if name == f.id {
		return fmt.Errorf("cluster: coordinator %q cannot be its own peer", name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.peers[name]; dup {
		return fmt.Errorf("cluster: duplicate peer coordinator %q", name)
	}
	f.peers[name] = pt
	f.order = append(f.order, name)
	for i := len(f.order) - 1; i > 0 && f.order[i] < f.order[i-1]; i-- {
		f.order[i], f.order[i-1] = f.order[i-1], f.order[i]
	}
	return nil
}

// ServePeer answers one peer request: the receiving half of the
// coordinator peer protocol (wire.StreamServer.Peer).
func (c *Coordinator) ServePeer(req wire.PeerRequest) wire.PeerResponse {
	f := c.fanin.Load()
	if f == nil {
		return wire.PeerResponse{Op: req.Op, Err: "fan-in not enabled"}
	}
	switch req.Op {
	case wire.PeerOpLog:
		f.mergeAndApply(req.From, req.Floor, req.Log)
		f.mu.Lock()
		snap := append([]wire.LogRecord(nil), f.log...)
		floor := f.floor
		f.mu.Unlock()
		return wire.PeerResponse{Op: req.Op, Floor: floor, Log: snap}
	case wire.PeerOpHints:
		applied, err := c.acceptPeerHints(req.Member, req.Hints)
		if err != nil {
			return wire.PeerResponse{Op: req.Op, Err: err.Error()}
		}
		return wire.PeerResponse{Op: req.Op, Applied: applied}
	case wire.PeerOpView:
		data, err := c.localClusterJSON()
		if err != nil {
			return wire.PeerResponse{Op: req.Op, Err: err.Error()}
		}
		return wire.PeerResponse{Op: req.Op, View: data}
	default:
		return wire.PeerResponse{Op: req.Op, Err: "unknown op"}
	}
}

// acceptPeerHints lands a peer's buffered updates for member name —
// the hint-merge half of the peer channel. The records are accepted
// only if the member is up from this coordinator's side (an asymmetric
// fault can cut one coordinator off while another still reaches the
// node); otherwise the sender keeps custody and retries.
func (c *Coordinator) acceptPeerHints(name string, recs []wire.Record) (int, error) {
	m := c.lookup(name)
	if m == nil {
		return 0, fmt.Errorf("unknown member %q", name)
	}
	if m.state().down() {
		return 0, fmt.Errorf("member %q is down here too", name)
	}
	if len(recs) == 0 {
		return 0, nil
	}
	n, err := m.Node.Deliver(recs)
	c.noteCall(m, err)
	if err != nil {
		return 0, err
	}
	m.records.Add(int64(len(recs)))
	return n, nil
}

// appendLocked stamps rec with the next epoch and this coordinator's
// origin, appends it and marks it applied (the appender's live state
// already reflects it, or the caller dispatches it itself), then
// sweeps so the lease fold sees it. Callers hold f.mu and push to
// peers after releasing it.
func (f *fanIn) appendLocked(rec wire.LogRecord) wire.LogRecord {
	rec.Epoch = f.maxEpoch + 1
	rec.Origin = f.id
	if rec.Kind == wire.LogBegin && rec.Run == 0 {
		rec.Run = rec.Epoch // a run is named by its Begin record's epoch
	}
	f.maxEpoch = rec.Epoch
	f.log = append(f.log, rec)
	f.applied[logKey{rec.Epoch, rec.Origin}] = true
	f.appends.Add(1)
	f.sweepLocked()
	f.maybeCompactLocked()
	return rec
}

// mergeAndApply merges peer records into the log and sweeps: every
// record this coordinator has not seen is applied in total order, so
// ring swaps and dual publications land here exactly as they did on
// the coordinator driving them. from names the peer the records came
// from ("" for test-orchestrated merges) so its cover watermark — how
// far its log provably matches ours — advances, and peerFloor is the
// compaction floor it shipped.
func (f *fanIn) mergeAndApply(from string, peerFloor uint64, recs []wire.LogRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.floor > 0 && len(recs) > 0 && recs[0].Epoch <= f.floor {
		// Records at or below our floor that we no longer hold were
		// compacted after the whole tier confirmed them — re-merging
		// them would only flap the compaction. Ones we do hold pass
		// through (MergeLogs deduplicates them anyway).
		kept := make([]wire.LogRecord, 0, len(recs))
		i := 0
		for _, r := range recs {
			if r.Epoch > f.floor {
				kept = append(kept, r)
				continue
			}
			for i < len(f.log) && f.log[i].Before(r) {
				i++
			}
			if i < len(f.log) && f.log[i].Same(r) {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	merged, added := wire.MergeLogs(f.log, recs)
	f.log = merged
	for i := range recs {
		f.maxEpoch = max(f.maxEpoch, recs[i].Epoch)
	}
	if added > 0 || f.leaseHolder == "" {
		f.sweepLocked()
	}
	if from != "" {
		f.peerFloor[from] = max(f.peerFloor[from], peerFloor)
		if pc := f.coverFromLocked(recs, peerFloor); pc > f.peerCover[from] {
			f.peerCover[from] = pc
		}
		f.maybeCompactLocked()
	}
}

// coverFromLocked computes how far a peer's just-received log confirms
// ours: the largest epoch E such that every record we hold in
// (base, E] also appears in peerLog, where base is the higher of the
// two compaction floors (everything at or below a floor was confirmed
// tier-wide before that floor advanced). A whole epoch group must
// match before the cover passes it. Callers hold f.mu, after merging
// peerLog in — so any record the peer has and we lacked is already
// ours, and a cover of E means our logs agree through E exactly.
func (f *fanIn) coverFromLocked(peerLog []wire.LogRecord, peerFloor uint64) uint64 {
	base := max(f.floor, peerFloor)
	cover := base
	j := 0
	for i := 0; i < len(f.log); i++ {
		rec := &f.log[i]
		if rec.Epoch <= base {
			continue
		}
		for j < len(peerLog) && peerLog[j].Before(*rec) {
			j++
		}
		if j >= len(peerLog) || !peerLog[j].Same(*rec) {
			break
		}
		j++
		if i+1 == len(f.log) || f.log[i+1].Epoch != rec.Epoch {
			cover = rec.Epoch
		}
	}
	return cover
}

// maybeCompactLocked compacts when the log is long enough to matter
// and the tier-wide cover has moved past our floor — or when a peer's
// floor has (it compacted a prefix we still carry; matching its floor
// is what re-converges the logs). Callers hold f.mu.
func (f *fanIn) maybeCompactLocked() {
	maxPeerFloor := uint64(0)
	for _, name := range f.order {
		maxPeerFloor = max(maxPeerFloor, f.peerFloor[name])
	}
	if len(f.log) < compactAfter && maxPeerFloor <= f.floor {
		return
	}
	cover := f.maxEpoch
	for _, name := range f.order {
		cover = min(cover, f.peerCover[name])
	}
	if cover > f.floor {
		f.compactLocked(cover)
	}
}

// compactLocked drops every record at or below cover that no longer
// carries state, and advances the floor. What survives of the prefix
// is exactly the skeleton that keeps the fold and the fences
// byte-for-byte equivalent to the full log:
//
//   - open runs' records, and closed runs' only if the closing record
//     is above cover (a run collapses as one unit);
//   - the newest Park per identity;
//   - the live tenure's acquire (the fencing token future appends
//     carry) and its newest confirmed renewal (the fold's expiry), so
//     the lease state at the first kept record is exactly what the
//     full log produced there;
//   - acquires (and their releases) of any tenure a kept migration
//     record references, so re-evaluating those records' fences keeps
//     yielding the same verdict.
//
// The decision is a pure function of (log, cover), so coordinators
// compacting at the same cover produce identical logs — and since
// covers converge to the max epoch at quiesce, so do compacted logs.
// Callers hold f.mu.
func (f *fanIn) compactLocked(cover uint64) {
	// Pass 1: fold the whole log once, recording closing epochs per
	// run, the newest park per identity, each tenure's record indices,
	// and the fold state at the first lease record above cover.
	type tenureIdx struct {
		start     int
		release   int
		lastTaken int
	}
	closeAt := make(map[uint64]uint64)
	parkNewest := make(map[string]logKey)
	tenures := make(map[uint64]*tenureIdx)
	holder, tenureEpoch, until := "", uint64(0), 0.0
	var cur *tenureIdx
	snapStart, snapTaken := -1, -1 // fold state entering the >cover region
	snapped := false
	for i := range f.log {
		rec := &f.log[i]
		if !snapped && rec.Epoch > cover &&
			(rec.Kind == wire.LogLease || rec.Kind == wire.LogRelease) {
			if holder != "" && cur != nil {
				snapStart, snapTaken = cur.start, cur.lastTaken
			}
			snapped = true
		}
		switch rec.Kind {
		case wire.LogLease:
			if holder == "" || rec.Holder == holder || rec.T >= until {
				if rec.Holder != holder {
					tenureEpoch = rec.Epoch
					cur = &tenureIdx{start: i, release: -1, lastTaken: i}
					tenures[rec.Epoch] = cur
				} else if cur != nil {
					cur.lastTaken = i
				}
				holder, until = rec.Holder, rec.Until
			}
		case wire.LogRelease:
			if rec.Holder == holder {
				if cur != nil {
					cur.release = i
				}
				holder, tenureEpoch, until = "", 0, 0
				cur = nil
			}
		case wire.LogCommit, wire.LogAbort:
			if rec.Epoch > closeAt[rec.Run] {
				closeAt[rec.Run] = rec.Epoch
			}
		case wire.LogPark:
			parkNewest[rec.Target] = logKey{rec.Epoch, rec.Origin}
		}
	}
	if !snapped && holder != "" && cur != nil {
		// No lease records above cover: the final fold state is the one
		// to preserve.
		snapStart, snapTaken = cur.start, cur.lastTaken
	}
	// Pass 2: decide migration-record survival and collect the tenures
	// their fences reference.
	keep := make([]bool, len(f.log))
	refTenures := map[uint64]bool{}
	if holder != "" {
		refTenures[tenureEpoch] = true
	}
	for i := range f.log {
		rec := &f.log[i]
		switch rec.Kind {
		case wire.LogBegin, wire.LogCommit, wire.LogAbort:
			ce, closed := closeAt[rec.Run]
			if rec.Epoch > cover || !closed || ce > cover {
				keep[i] = true
				refTenures[rec.Lease] = true
			}
		case wire.LogPark:
			if rec.Epoch > cover || parkNewest[rec.Target] == (logKey{rec.Epoch, rec.Origin}) {
				keep[i] = true
				refTenures[rec.Lease] = true
			}
		}
	}
	// Pass 3: the lease skeleton.
	for i := range f.log {
		rec := &f.log[i]
		if rec.Kind != wire.LogLease && rec.Kind != wire.LogRelease {
			continue
		}
		if rec.Epoch > cover {
			keep[i] = true
		}
	}
	if snapStart >= 0 {
		keep[snapStart] = true
	}
	if snapTaken >= 0 {
		keep[snapTaken] = true
	}
	for te := range refTenures {
		t := tenures[te]
		if t == nil {
			continue
		}
		keep[t.start] = true
		if t.release >= 0 {
			keep[t.release] = true
		}
	}
	kept := make([]wire.LogRecord, 0, len(f.log))
	present := make(map[logKey]bool)
	for i := range f.log {
		if !keep[i] {
			continue
		}
		kept = append(kept, f.log[i])
		if f.log[i].Epoch <= cover {
			present[logKey{f.log[i].Epoch, f.log[i].Origin}] = true
		}
	}
	if len(kept) < len(f.log) {
		f.compactions.Add(1)
	}
	f.log = kept
	f.floor = cover
	// Dropped records can never be merged back (the floor filter), so
	// their apply/repair bookkeeping is garbage now.
	for k := range f.applied {
		if k.epoch <= cover && !present[k] {
			delete(f.applied, k)
		}
	}
	for k := range f.fencedOwn {
		if k.epoch <= cover && !present[k] {
			delete(f.fencedOwn, k)
		}
	}
	f.sweepLocked()
}

// sweepLocked walks the whole log in total order, folding lease
// records into the current lease state and dispatching every unapplied
// migration record against the fold at its position. Pure with respect
// to already-applied records — except that an own-origin record the
// converged fold now fences is repaired exactly once (it was applied
// optimistically at append time; a later-merged steal that sorts
// before it can retroactively fence it). Sweeping is idempotent and
// cheap (the log is compacted small). Callers hold f.mu.
func (f *fanIn) sweepLocked() {
	holder, tenure, until := "", uint64(0), 0.0
	for i := range f.log {
		rec := &f.log[i]
		switch rec.Kind {
		case wire.LogLease:
			if holder == "" || rec.Holder == holder || rec.T >= until {
				if rec.Holder != holder {
					tenure = rec.Epoch // a new tenure starts; renewals keep theirs
				}
				holder = rec.Holder
				until = rec.Until
			}
		case wire.LogRelease:
			if rec.Holder == holder {
				holder, tenure, until = "", 0, 0
			}
		default:
			key := logKey{rec.Epoch, rec.Origin}
			// Fencing: migration records must come from the tenure they
			// were appended under; a deposed leader's stragglers are
			// rejected on every coordinator alike.
			fenced := rec.Origin != holder || rec.Lease != tenure
			if f.applied[key] {
				if fenced && rec.Origin == f.id && !f.fencedOwn[key] {
					f.fencedOwn[key] = true
					f.repairLocked(*rec)
					f.repairs.Add(1)
				}
				continue
			}
			f.applied[key] = true
			if fenced {
				f.rejects.Add(1)
				continue
			}
			if err := f.dispatchLocked(*rec); err != nil {
				f.rejects.Add(1)
				continue
			}
			f.applies.Add(1)
		}
	}
	f.leaseHolder, f.leaseEpoch, f.leaseUntil = holder, tenure, until
}

// repairLocked reconciles the local effect of an own-origin record the
// converged fold has retroactively fenced: the record was applied at
// append time under a fold that named this coordinator holder, but a
// later-merged steal sorts before it. With the quorum gate this cannot
// happen in a two-coordinator tier (an append's preceding quorum round
// would have merged the steal first); in larger tiers a partitioned
// minority can still take this path. Callers hold f.mu.
func (f *fanIn) repairLocked(rec wire.LogRecord) {
	c := f.c
	switch rec.Kind {
	case wire.LogPark:
		// The demotion's leave run was fenced too (commit is gated on
		// the lease), so the member never left anywhere else: unpark.
		if heal := c.heal.Load(); heal != nil {
			heal.unpark(rec.Target)
		}
	case wire.LogBegin:
		plan := f.runs[rec.Run]
		if plan == nil {
			return
		}
		// Roll the fenced run's routing back: dual routes stop, a
		// joining member leaves the scatter set. Partial copies on the
		// adds are left for the freshest-Seq merge to deduplicate (a
		// network sweep does not belong under f.mu); the true holder's
		// own runs will re-plan the ranges from its fold.
		c.rollback(plan)
		delete(f.runs, rec.Run)
		// If we were driving (or halted on) it, the halt must not block
		// future membership changes.
		f.clearHaltedRun(rec.Run, "fenced", "begun under a superseded lease")
	case wire.LogCommit, wire.LogAbort:
		// A close is fenced *before* any local mutation (commitRun and
		// abortRun re-check the lease first), so there is nothing to
		// undo here.
	}
}

// dispatchLocked applies one fenced migration record to live routing
// state. Callers hold f.mu; the routing lock is taken inside (that lock
// order is fixed: f.mu, then the table's).
func (f *fanIn) dispatchLocked(rec wire.LogRecord) error {
	switch rec.Kind {
	case wire.LogBegin:
		return f.applyBegin(rec)
	case wire.LogCommit, wire.LogAbort:
		return f.applyClose(rec)
	case wire.LogPark:
		if heal := f.c.heal.Load(); heal != nil {
			heal.park(rec.Target)
		}
		return nil
	default:
		return fmt.Errorf("cluster: unexpected log kind %v", rec.Kind)
	}
}

// applyBegin opens a migration run learned from the log exactly as the
// driving coordinator did — the same record, the same plan derivation,
// the same enter, which publishes every dual route: from here this
// coordinator routes the migration identically to the driver.
func (f *fanIn) applyBegin(rec wire.LogRecord) error {
	var joining *Member
	if rec.MigKind == migKindJoin {
		var err error
		if joining, err = f.cfg.MemberFactory(rec.Target, rec.Addr); err != nil {
			return fmt.Errorf("cluster: join %q: %w", rec.Target, err)
		}
		if joining == nil || joining.Node == nil {
			return fmt.Errorf("cluster: member factory returned no member for %q", rec.Target)
		}
	}
	plan, err := f.c.openPlan(rec, joining)
	if err != nil {
		return err
	}
	f.openLogged(plan, rec.Run)
	return nil
}

// openLogged registers an entered plan as run logRun of the log — on
// the driver and on every follower alike, so a peer stealing the lease
// finds the same open run no matter who drove it. Callers hold f.mu.
func (f *fanIn) openLogged(plan *migrationPlan, logRun uint64) {
	plan.logRun = logRun
	f.runs[logRun] = plan
}

// applyClose closes a run learned from the log with the table
// transition its record names: a Commit swaps to the plan's next ring
// (the driver drops the superseded copies), an Abort rolls back (the
// driver removes every range from its adds). If this coordinator was
// halted on the same run (its drive was fenced by the thief now closing
// it), the resident engine state is cleared too.
func (f *fanIn) applyClose(rec wire.LogRecord) error {
	plan := f.runs[rec.Run]
	if plan == nil {
		return fmt.Errorf("cluster: %v for unknown run %d", rec.Kind, rec.Run)
	}
	how := "aborted by "
	if rec.Kind == wire.LogCommit {
		f.c.commit(plan)
		how = "committed by "
	} else {
		f.c.rollback(plan)
	}
	delete(f.runs, rec.Run)
	f.clearHaltedRun(rec.Run, "superseded", how+rec.Origin)
	return nil
}

// clearHaltedRun drops the resident engine state of a halted logged
// run a peer's close record has just superseded (or the converged fold
// fenced), so the deposed driver does not stay wedged on
// ErrMigrationHalted forever. TryLock cannot deadlock under f.mu (migMu
// is never waited for while holding it); if the engine still runs, its
// own fenced close halts it.
func (f *fanIn) clearHaltedRun(logRun uint64, verdict, how string) {
	c := f.c
	run := c.mig.Load()
	if run == nil || run.logRun != logRun {
		return
	}
	if !c.migMu.TryLock() {
		return
	}
	if c.mig.CompareAndSwap(run, nil) {
		c.setMigOutcome(fmt.Sprintf("%s %s: %s", verdict, run.label(), how))
	}
	c.migMu.Unlock()
}

// gossip exchanges logs with every peer — push ours, merge theirs —
// and reports how many peers completed the round trip out of how many
// are registered: the quorum inputs for every lease decision. The
// round's first failure (transport, refusal, or an oversized encode) is
// kept in gossipErr for the stats surface; unreachable peers converge
// on their next exchange. Peer transports are called with f.mu
// released.
func (f *fanIn) gossip() (acks, npeers int) {
	f.mu.Lock()
	snap := append([]wire.LogRecord(nil), f.log...)
	floor := f.floor
	type peer struct {
		name string
		pt   wire.PeerTransport
	}
	peers := make([]peer, 0, len(f.order))
	for _, name := range f.order {
		peers = append(peers, peer{name, f.peers[name]})
	}
	f.mu.Unlock()
	if len(peers) == 0 {
		return 0, 0
	}
	f.gossips.Add(1)
	errMsg := ""
	for _, p := range peers {
		resp, err := p.pt.Peer(wire.PeerRequest{Op: wire.PeerOpLog, From: f.id, Floor: floor, Log: snap})
		if err == nil && resp.Err != "" {
			err = errors.New(resp.Err)
		}
		if err != nil {
			f.gossipErrs.Add(1)
			if errMsg == "" {
				errMsg = p.name + ": " + err.Error()
			}
			continue
		}
		f.mergeAndApply(p.name, resp.Floor, resp.Log)
		acks++
	}
	f.mu.Lock()
	f.gossipErr = errMsg
	f.mu.Unlock()
	return acks, len(peers)
}

// gossipIfDue runs a periodic exchange on the Tick clock.
func (f *fanIn) gossipIfDue(now float64) {
	f.mu.Lock()
	due := !f.haveGossip || now-f.lastGossip >= f.gossipEvery()
	if due {
		f.lastGossip, f.haveGossip = now, true
	}
	f.mu.Unlock()
	if due {
		f.gossip()
	}
}

// leaseState returns the current fold: holder, tenure epoch, expiry.
func (f *fanIn) leaseState() (string, uint64, float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaseHolder, f.leaseEpoch, f.leaseUntil
}

// ackedAt reports whether a quorum has confirmed this coordinator's
// tenure through now. A solo front is its own quorum.
func (f *fanIn) ackedAt(now float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.peers) == 0 || now < f.acked
}

// holdLease reports whether this coordinator holds the self-heal lease
// at now, renewing a tenure nearing expiry (and re-pushing an
// unacknowledged one) or acquiring/stealing when the fold allows. The
// membership surface calls it before every fenced change. A holder
// whose renewals stop reaching a quorum answers false once the last
// acknowledged expiry passes: by then a partitioned majority may have
// agreed on a thief, and acting on the local fold alone is exactly the
// split-brain the quorum gate exists to stop.
func (f *fanIn) holdLease(now float64) bool {
	holder, _, until := f.leaseState()
	if holder != "" && holder != f.id && now < until {
		f.denied.Add(1)
		return false
	}
	if holder != f.id || now >= until {
		return f.acquireLease(now)
	}
	renewed := false
	if until-now < f.leaseFor()/2 {
		f.mu.Lock()
		if f.leaseHolder == f.id {
			f.appendLocked(wire.LogRecord{Kind: wire.LogLease, Holder: f.id, T: now, Until: now + f.leaseFor()})
			renewed = true
		}
		f.mu.Unlock()
	}
	if renewed || !f.ackedAt(now) {
		acks, npeers := f.gossip()
		if quorum(acks, npeers) {
			f.mu.Lock()
			// Re-read under the lock: the round may have merged a steal,
			// in which case nothing of ours was acknowledged.
			if f.leaseHolder == f.id && f.leaseUntil > f.acked {
				f.acked = f.leaseUntil
			}
			f.mu.Unlock()
		}
	}
	holder, _, until = f.leaseState()
	if holder != f.id || now >= until || !f.ackedAt(now) {
		f.denied.Add(1)
		return false
	}
	return true
}

// acquireLease claims a free (or steals an expired) lease with two
// quorum-gated gossip rounds: the first converges the local fold with
// a majority — deciding a steal on a stale fold alone is how
// split-brain starts — and the second replicates the acquire record
// and confirms the merged fold still picks this coordinator
// (concurrent acquires land on the same epoch and tie-break
// deterministically). Either round failing its quorum denies the
// acquisition.
func (f *fanIn) acquireLease(now float64) bool {
	acks, npeers := f.gossip()
	if !quorum(acks, npeers) {
		f.denied.Add(1)
		return false
	}
	f.mu.Lock()
	holder, until := f.leaseHolder, f.leaseUntil
	if holder != "" && holder != f.id && now < until {
		f.mu.Unlock()
		f.denied.Add(1)
		return false
	}
	stealing := holder != "" && holder != f.id
	f.appendLocked(wire.LogRecord{Kind: wire.LogLease, Holder: f.id, T: now, Until: now + f.leaseFor()})
	f.mu.Unlock()
	acks, npeers = f.gossip()
	if !quorum(acks, npeers) {
		f.denied.Add(1)
		return false
	}
	f.mu.Lock()
	won := f.leaseHolder == f.id
	if won && f.leaseUntil > f.acked {
		f.acked = f.leaseUntil
	}
	f.mu.Unlock()
	if !won {
		f.denied.Add(1)
		return false
	}
	f.acquired.Add(1)
	if stealing {
		f.steals.Add(1)
	}
	return true
}

// openRun returns a run begun on the log and not yet closed, if any.
func (f *fanIn) openRun() *migrationPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, plan := range f.runs {
		return plan
	}
	return nil
}

// fanInTick is the per-Tick fan-in work: periodic gossip, keeping the
// lease alive while this coordinator drives a migration, stealing the
// lease and resuming from the log when the driver died mid-run, and
// forwarding undeliverable hints to peers.
func (c *Coordinator) fanInTick(f *fanIn, now float64) {
	f.gossipIfDue(now)
	if run := c.mig.Load(); run != nil && run.logRun != 0 {
		// A halted logged run a peer has since closed (it stole the lease
		// and committed or aborted) is dead weight: applyClose clears it,
		// but its TryLock loses to a drive still unwinding —
		// re-check here, where migMu is takeable.
		f.mu.Lock()
		_, open := f.runs[run.logRun]
		f.mu.Unlock()
		if !open {
			f.clearHaltedRun(run.logRun, "superseded", "closed by a peer")
		}
	}
	if plan := f.openRun(); plan != nil {
		if c.mig.Load() != nil {
			// We are driving (or halted on) this run: keep the tenure
			// from expiring under a long copy.
			holder, _, until := f.leaseState()
			if holder == f.id && now < until && until-now < f.leaseFor()/2 {
				f.holdLease(now)
			}
		} else if f.holdLease(now) {
			// The driver is gone and the lease fell to us: rebuild the
			// run from the log and drive it to commit.
			c.resumeFromLog(f, plan)
		}
	}
	c.forwardHints(f)
}

// resumeFromLog wraps the open run's plan for driving and drives it to
// commit in a background goroutine, exactly like beginMigration's
// engine: the duals are already published (Begin did that on every
// coordinator), so every range re-copies — idempotent per (id, Seq) —
// and the final commit swaps the ring and appends the Commit record
// under the thief's tenure. Tick returns immediately; a large re-copy
// never stalls heartbeats, gossip or lease renewal.
func (c *Coordinator) resumeFromLog(f *fanIn, plan *migrationPlan) {
	if !c.migMu.TryLock() {
		return // a drive is still unwinding; the next Tick retries
	}
	if c.mig.Load() != nil {
		c.migMu.Unlock()
		return
	}
	f.resumes.Add(1)
	c.migResumed.Add(1)
	// A halt leaves the run resident for the next resume (or a peer's
	// steal), exactly like a locally begun run.
	c.startRun(plan)
}

// forwardHints pushes buffered hints for down members to peers: an
// asymmetric fault can cut this coordinator off from a node a peer
// still reaches, so custody transfers only on a confirmed delivery —
// otherwise the records go straight back into the local buffer. A
// buffer is offered in frame-sized chunks, each confirmed on its own;
// the first chunk no peer confirms and everything after it stay here.
func (c *Coordinator) forwardHints(f *fanIn) {
	f.mu.Lock()
	peers := make([]wire.PeerTransport, 0, len(f.order))
	for _, name := range f.order {
		peers = append(peers, f.peers[name])
	}
	f.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	for _, m := range c.memberList() {
		if !m.state().down() || m.hints.Stats().Buffered == 0 {
			continue
		}
		recs := m.hints.Drain()
		if len(recs) == 0 {
			continue
		}
		handed, _ := wire.SendChunked(recs, func(chunk []wire.Record, _ int) (int, error) {
			for _, pt := range peers {
				resp, err := pt.Peer(wire.PeerRequest{
					Op: wire.PeerOpHints, From: f.id, Member: m.Name, Hints: chunk,
				})
				if err == nil && resp.Err == "" {
					f.hintsFwd.Add(int64(len(chunk)))
					return len(chunk), nil
				}
			}
			return 0, errNoPeerTookHints
		})
		m.hints.Readd(recs[handed:])
	}
}

// errNoPeerTookHints stops a hint hand-off at the chunk no peer
// confirmed.
var errNoPeerTookHints = errors.New("cluster: no peer took the hints")

// appendMigrationRecord appends a fenced migration record (Begin,
// Commit, Abort or Park) under the current tenure and pushes it to the
// peers. It fails when this coordinator does not hold the lease — the
// fence that stops a deposed leader from publishing.
func (f *fanIn) appendMigrationRecord(rec wire.LogRecord) (wire.LogRecord, error) {
	f.mu.Lock()
	if f.leaseHolder != f.id {
		f.mu.Unlock()
		return wire.LogRecord{}, ErrNotLeaseHolder
	}
	rec.Lease = f.leaseEpoch
	rec = f.appendLocked(rec)
	f.mu.Unlock()
	f.gossip()
	return rec, nil
}

// closeRun appends the closing record for a driven run (Commit or
// Abort). It re-verifies the lease through a quorum round first — the
// decision-point fence: a driver deposed mid-copy learns of the thief
// here and halts instead of mutating its routing state divergently.
// Only after the record is appended (and pushed) does the caller swap
// or roll back, so a close that fails leaves the run open everywhere.
func (f *fanIn) closeRun(logRun uint64, kind wire.LogKind) error {
	if !f.holdLease(f.c.now()) {
		f.rejects.Add(1)
		return ErrNotLeaseHolder
	}
	if _, err := f.appendMigrationRecord(wire.LogRecord{Kind: kind, Run: logRun}); err != nil {
		f.rejects.Add(1)
		return err
	}
	f.mu.Lock()
	delete(f.runs, logRun)
	f.mu.Unlock()
	return nil
}

// FanInStats is a snapshot of a coordinator's fan-in state.
type FanInStats struct {
	// Enabled reports whether EnableFanIn has been called; ID is this
	// coordinator's name on the log, Peers its registered peers.
	Enabled bool     `json:"enabled"`
	ID      string   `json:"id,omitempty"`
	Peers   []string `json:"peers,omitempty"`
	// LogLen, MaxEpoch and Floor describe the membership log (Floor is
	// the compacted-through epoch).
	LogLen   int    `json:"log_len"`
	MaxEpoch uint64 `json:"max_epoch"`
	Floor    uint64 `json:"floor"`
	// LeaseHolder/LeaseUntil are the current lease fold ("" when free);
	// Holding reports whether this coordinator is the holder.
	LeaseHolder string  `json:"lease_holder,omitempty"`
	LeaseUntil  float64 `json:"lease_until,omitempty"`
	Holding     bool    `json:"holding_lease"`
	// OpenRuns counts migration runs begun on the log and not closed.
	OpenRuns int `json:"open_runs"`
	// PeerCover maps each peer to its cover watermark: the highest epoch
	// through which its log is confirmed to agree with ours. The gap
	// MaxEpoch − min(PeerCover) is the tier's membership-log lag, the
	// telemetry gauge for how far behind the slowest front is.
	PeerCover map[string]uint64 `json:"-"`
	// LastGossipErr is the most recent gossip round's first failure
	// ("" when the round reached every peer) — persistent non-"" means
	// replication, and with it lease safety, is impaired.
	LastGossipErr string `json:"last_gossip_error,omitempty"`
	// Counters: records appended locally, peer records applied, fenced
	// or failed records rejected, gossip exchanges and their transport
	// failures, lease acquisitions/denials/steals, resumed runs,
	// repaired own-origin fenced records, log compactions, hint records
	// forwarded to peers.
	Appends        int64 `json:"appends"`
	Applies        int64 `json:"applies"`
	Rejects        int64 `json:"rejects"`
	Gossips        int64 `json:"gossips"`
	GossipErrs     int64 `json:"gossip_errors"`
	Acquired       int64 `json:"lease_acquired"`
	Denied         int64 `json:"lease_denied"`
	Steals         int64 `json:"lease_steals"`
	Resumes        int64 `json:"resumes"`
	Repairs        int64 `json:"fence_repairs"`
	Compactions    int64 `json:"log_compactions"`
	HintsForwarded int64 `json:"hints_forwarded"`
}

// FanInStats snapshots the fan-in layer (zero value when disabled).
func (c *Coordinator) FanInStats() FanInStats {
	f := c.fanin.Load()
	if f == nil {
		return FanInStats{}
	}
	f.mu.Lock()
	st := FanInStats{
		Enabled:       true,
		ID:            f.id,
		Peers:         append([]string(nil), f.order...),
		LogLen:        len(f.log),
		MaxEpoch:      f.maxEpoch,
		Floor:         f.floor,
		LeaseHolder:   f.leaseHolder,
		LeaseUntil:    f.leaseUntil,
		Holding:       f.leaseHolder == f.id,
		OpenRuns:      len(f.runs),
		LastGossipErr: f.gossipErr,
	}
	if len(f.peerCover) > 0 {
		st.PeerCover = make(map[string]uint64, len(f.peerCover))
		for name, cover := range f.peerCover {
			st.PeerCover[name] = cover
		}
	}
	f.mu.Unlock()
	st.Appends = f.appends.Load()
	st.Applies = f.applies.Load()
	st.Rejects = f.rejects.Load()
	st.Gossips = f.gossips.Load()
	st.GossipErrs = f.gossipErrs.Load()
	st.Acquired = f.acquired.Load()
	st.Denied = f.denied.Load()
	st.Steals = f.steals.Load()
	st.Resumes = f.resumes.Load()
	st.Repairs = f.repairs.Load()
	st.Compactions = f.compactions.Load()
	st.HintsForwarded = f.hintsFwd.Load()
	return st
}

// MembershipLog returns a copy of the coordinator's membership log in
// total order (tests and debugging).
func (c *Coordinator) MembershipLog() []wire.LogRecord {
	f := c.fanin.Load()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]wire.LogRecord(nil), f.log...)
}
