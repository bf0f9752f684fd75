// Self-healing membership: the control loops that close the operator
// gaps the replication layer left open. The per-member circuit breaker
// (replication.go) is the local half of a failure detector — it only
// notices a member when traffic happens to hit it. This file adds the
// global half and the reactions:
//
//   - a liveness detector: periodic heartbeats whose outcomes are
//     events of the member's health word (replication.go) beside the
//     breaker's calls — a suspicion state between up and down,
//     consecutive missed beats trip the member — and recovery that
//     demands K consecutive successful probes so a flapping member
//     does not oscillate;
//   - auto-demotion: a member down past a hint-buffer deadline (wall
//     time or hinted-record count) is removed via the RemoveNode
//     preference-list migration — survivors source the imports — and
//     its identity is parked so a late rejoin re-enters as a fresh
//     AddNode;
//   - a reweighting control loop: periodic samples of routed-record
//     skew, and when max/min imbalance breaches a ratio for H
//     consecutive samples (hysteresis), BalancedWeights is applied
//     through Reweight.
//
// Everything is driven by Coordinator.Tick(now): cmd/locserver ticks
// it from a wall-clock ticker, simulations from the ingest clock, so
// the loops are deterministic under test and real in production.

package cluster

import (
	"sort"
	"sync"
	"sync/atomic"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// SelfHealConfig tunes the self-healing control loops. Times are in
// the coordinator's transport-clock units — seconds of simulation time
// under drsim, wall seconds under locserver.
type SelfHealConfig struct {
	// HeartbeatEvery is the detector period: at most one heartbeat
	// sweep (plus recovery probes) per this many clock units (<= 0
	// selects the default).
	HeartbeatEvery float64
	// SuspectAfter is how many consecutive failed heartbeats trip a
	// member's breaker (<= 0 selects the default). The member is
	// Suspect from the first failure.
	SuspectAfter int
	// RecoverAfter is K: how many consecutive successful recovery
	// probes — each including a real hint-drain delivery — a down
	// member needs before it is marked up (<= 0 selects the default).
	RecoverAfter int
	// DemoteAfter is the hint deadline: a member down this long (or
	// whose oldest buffered hint is this old) is auto-demoted through
	// RemoveNode. 0 disables time-based demotion.
	DemoteAfter float64
	// DemoteHints demotes a down member once this many records have
	// been hinted at it since its breaker tripped. 0 disables
	// count-based demotion.
	DemoteHints int64
	// ReweightEvery is the load-control sample period (0 disables the
	// reweight loop).
	ReweightEvery float64
	// ReweightRatio is the max/min routed-records-per-window imbalance
	// that counts as a breach (<= 0 selects the default).
	ReweightRatio float64
	// ReweightAfter is H: how many consecutive breached samples before
	// BalancedWeights is applied (<= 0 selects the default) — the
	// hysteresis that keeps one noisy window from thrashing the ring.
	ReweightAfter int
	// VnodeBase is the vnode count BalancedWeights scales around (<= 0
	// selects DefaultVnodes).
	VnodeBase int
}

// DefaultSelfHealConfig returns the production defaults: 2-unit
// heartbeats, trip after 3 missed, recover after 2 clean probes,
// demote after 300 units down, reweight on 4x skew held for 3
// one-minute windows.
func DefaultSelfHealConfig() SelfHealConfig {
	return SelfHealConfig{
		HeartbeatEvery: 2,
		SuspectAfter:   3,
		RecoverAfter:   2,
		DemoteAfter:    300,
		DemoteHints:    0,
		ReweightEvery:  60,
		ReweightRatio:  4,
		ReweightAfter:  3,
		VnodeBase:      DefaultVnodes,
	}
}

// selfHeal is the coordinator's self-healing state: the config plus
// the loops' sampling memory and counters.
type selfHeal struct {
	cfg SelfHealConfig

	mu          sync.Mutex
	lastBeat    float64
	haveBeat    bool
	lastSample  float64
	haveSample  bool
	lastRecords map[string]int64 // routed-record totals at the last sample
	breaches    int              // consecutive skew breaches (hysteresis)
	parked      map[string]bool  // demoted identities awaiting fresh rejoin

	heartbeats       atomic.Int64
	suspects         atomic.Int64
	trips            atomic.Int64
	demotions        atomic.Int64
	demotionFailures atomic.Int64
	reweights        atomic.Int64
}

// park records a demoted identity — by the local demotion loop, or
// from a peer's Park log record — until it rejoins through AddNode.
func (h *selfHeal) park(name string) {
	h.mu.Lock()
	h.parked[name] = true
	h.mu.Unlock()
}

// unpark clears a demoted identity when it rejoins through AddNode.
func (h *selfHeal) unpark(name string) {
	h.mu.Lock()
	delete(h.parked, name)
	h.mu.Unlock()
}

// SelfHealStats is a snapshot of the self-healing loops' counters.
type SelfHealStats struct {
	// Enabled reports whether EnableSelfHeal has been called.
	Enabled bool `json:"enabled"`
	// Heartbeats counts detector sweeps, Suspects the up→suspect
	// transitions, Trips the breaker openings (any cause).
	Heartbeats int64 `json:"heartbeats"`
	Suspects   int64 `json:"suspects"`
	Trips      int64 `json:"trips"`
	// Demotions counts members auto-removed past their hint deadline;
	// DemotionFailures the RemoveNode attempts that failed (retried on
	// the next tick).
	Demotions        int64 `json:"demotions"`
	DemotionFailures int64 `json:"demotion_failures"`
	// Reweights counts applied BalancedWeights migrations.
	Reweights int64 `json:"reweights"`
	// Demoted lists the parked identities, sorted.
	Demoted []string `json:"demoted,omitempty"`
}

// EnableSelfHeal turns on the self-healing membership loops with the
// given config (zero "rate" fields fall back to defaults; DemoteAfter,
// DemoteHints and ReweightEvery stay as given — zero disables that
// loop). Call Tick to drive the loops.
func (c *Coordinator) EnableSelfHeal(cfg SelfHealConfig) {
	def := DefaultSelfHealConfig()
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = def.HeartbeatEvery
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = def.SuspectAfter
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = def.RecoverAfter
	}
	if cfg.ReweightRatio <= 0 {
		cfg.ReweightRatio = def.ReweightRatio
	}
	if cfg.ReweightAfter <= 0 {
		cfg.ReweightAfter = def.ReweightAfter
	}
	if cfg.VnodeBase <= 0 {
		cfg.VnodeBase = DefaultVnodes
	}
	c.heal.Store(&selfHeal{
		cfg:         cfg,
		lastRecords: make(map[string]int64),
		parked:      make(map[string]bool),
	})
}

// Tick drives the self-healing loops at clock now — a heartbeat sweep
// plus recovery probes when one is due, then the demotion deadline
// check and the reweight controller — and, with fan-in enabled, the
// coordinator-peer work: periodic log gossip, lease renewal while
// driving a migration, resume-from-log after a lease steal, and hint
// forwarding. It is a no-op until EnableSelfHeal or EnableFanIn.
// Deployments tick whichever clock they live on — cmd/locserver a
// wall-seconds ticker, simulations the ingest clock — and concurrent
// ticks are safe (each loop guards its own cadence).
func (c *Coordinator) Tick(now float64) {
	heal := c.heal.Load()
	f := c.fanin.Load()
	if heal == nil && f == nil {
		return
	}
	c.advanceClock(now)
	now = c.now() // the clock is monotone; later Sends may have moved it
	if f != nil {
		c.fanInTick(f, now)
	}
	if heal == nil {
		return
	}
	if heal.beatDue(now) {
		c.heartbeat(heal)
		c.ProbeDown()
	}
	c.checkDemotions(heal, now)
	c.maybeReweight(heal, now)
}

// beatDue reports (and records) whether a heartbeat sweep is due.
func (h *selfHeal) beatDue(now float64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.haveBeat && now-h.lastBeat < h.cfg.HeartbeatEvery {
		return false
	}
	h.lastBeat, h.haveBeat = now, true
	return true
}

// heartbeat probes every up member with a cheap NodeStats call,
// concurrently; noteBeat judges the outcomes.
func (c *Coordinator) heartbeat(heal *selfHeal) {
	heal.heartbeats.Add(1)
	c.hold()
	defer c.release()
	fanOut(c, c.scatterOrder(), nil, (*Coordinator).noteBeat,
		func(_ *memberState, n locserv.Node) (locserv.NodeStats, error) { return n.NodeStats() })
}

// noteBeat feeds one heartbeat's outcome to the member's health word:
// a beat ok clears only the missed-beat run — not the breaker's
// failed-call run, which a member faulty on Deliver but healthy on
// stats must not be able to reset — and a failure is counted and
// extends it (SuspectAfter in a row trip the member).
func (c *Coordinator) noteBeat(m *memberState, err error) { c.step(m, m.outcome(evBeatOK, err)) }

// checkDemotions removes members down past their hint deadline.
func (c *Coordinator) checkDemotions(heal *selfHeal, now float64) {
	if heal.cfg.DemoteAfter <= 0 && heal.cfg.DemoteHints <= 0 {
		return
	}
	members := c.memberList()
	var overdue []string
	for _, m := range members {
		if s, trip := m.snapshot(); s.down() && pastDeadline(&heal.cfg, m, trip, now) {
			overdue = append(overdue, m.Name)
		}
	}
	remaining := len(members)
	if len(overdue) == 0 {
		return
	}
	// Fan-in fence: only the lease holder demotes. The loser returns
	// here and applies the winner's leave run from the log instead.
	if f := c.fanin.Load(); f != nil && !f.holdLease(now) {
		return
	}
	for _, name := range overdue {
		if remaining <= 1 {
			// Never demote the last member: with nobody to migrate to,
			// RemoveNode would fail anyway — keep hinting instead.
			return
		}
		if c.demote(heal, name) {
			remaining--
		}
	}
}

// pastDeadline reports whether a down member has crossed either
// demotion deadline: down (or holding hints) longer than DemoteAfter,
// or hinted at more than DemoteHints records since the trip.
func pastDeadline(cfg *SelfHealConfig, m *memberState, trip tripRecord, now float64) bool {
	st := m.hints.Stats()
	if d := cfg.DemoteAfter; d > 0 {
		if now-trip.since >= d {
			return true
		}
		if st.HasSince && st.Buffered > 0 && now-st.Since >= d {
			return true
		}
	}
	if h := cfg.DemoteHints; h > 0 && st.Hinted-trip.hinted >= h {
		return true
	}
	return false
}

// demote runs the RemoveNode migration for a member the deadline check
// flagged, re-verifying it is still down (a probe may have recovered
// it since the sweep), and parks its identity so a late rejoin comes
// back as a fresh AddNode. A failed migration (no live source for some
// range, say) is counted and retried on the next tick.
func (c *Coordinator) demote(heal *selfHeal, name string) bool {
	if m := c.lookup(name); m == nil || !m.state().down() {
		return false
	}
	if err := c.RemoveNode(name); err != nil {
		heal.demotionFailures.Add(1)
		return false
	}
	heal.park(name)
	heal.demotions.Add(1)
	if f := c.fanin.Load(); f != nil {
		// Replicate the parking so a late rejoin is fenced to a fresh
		// AddNode on every coordinator (append fails only if the lease
		// was stolen mid-demotion; the thief re-drives then).
		_, _ = f.appendMigrationRecord(wire.LogRecord{Kind: wire.LogPark, Target: name})
	}
	return true
}

// maybeReweight samples per-window routed-record deltas for the live
// members and, when the max/min skew has breached ReweightRatio for
// ReweightAfter consecutive windows, applies BalancedWeights through
// Reweight. Deltas — not cumulative totals — drive the trigger, so a
// long-balanced history cannot mask a fresh imbalance, and identical
// resulting weights skip the migration entirely.
func (c *Coordinator) maybeReweight(heal *selfHeal, now float64) {
	if heal.cfg.ReweightEvery <= 0 {
		return
	}
	heal.mu.Lock()
	if heal.haveSample && now-heal.lastSample < heal.cfg.ReweightEvery {
		heal.mu.Unlock()
		return
	}
	first := !heal.haveSample
	heal.lastSample, heal.haveSample = now, true
	members := c.memberList()
	deltas := make([]MemberStats, 0, len(members))
	var minD, maxD, traffic int64
	minD = -1
	for _, m := range members {
		if m.state().down() {
			continue
		}
		total := m.records.Load()
		d := total - heal.lastRecords[m.Name]
		heal.lastRecords[m.Name] = total
		if d < 0 {
			d = 0
		}
		deltas = append(deltas, MemberStats{Name: m.Name, Records: d})
		traffic += d
		if minD < 0 || d < minD {
			minD = d
		}
		maxD = max(maxD, d)
	}
	if first || len(deltas) < 2 || traffic == 0 {
		// Nothing to balance (or no baseline yet): not a breach.
		heal.breaches = 0
		heal.mu.Unlock()
		return
	}
	if float64(maxD)/float64(max(minD, 1)) < heal.cfg.ReweightRatio {
		heal.breaches = 0
		heal.mu.Unlock()
		return
	}
	heal.breaches++
	breached := heal.breaches >= heal.cfg.ReweightAfter
	if breached {
		heal.breaches = 0
	}
	heal.mu.Unlock()
	if !breached {
		return
	}

	weights := BalancedWeights(heal.cfg.VnodeBase, deltas)
	same := true
	for name, w := range weights {
		if c.vnodes(name) != w {
			same = false
			break
		}
	}
	if same {
		return
	}
	// Fan-in fence: only the lease holder reweights; the loser's breach
	// sampling restarts while it applies the winner's run from the log.
	if f := c.fanin.Load(); f != nil && !f.holdLease(now) {
		return
	}
	if err := c.Reweight(weights); err == nil {
		heal.reweights.Add(1)
	}
}

// Demoted returns the auto-demoted identities currently parked (sorted;
// nil when self-healing is off or nothing was demoted). A parked name
// rejoining through AddNode leaves the list.
func (c *Coordinator) Demoted() []string {
	heal := c.heal.Load()
	if heal == nil {
		return nil
	}
	heal.mu.Lock()
	out := make([]string, 0, len(heal.parked))
	for name := range heal.parked {
		out = append(out, name)
	}
	heal.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	return out
}

// SelfHealStats snapshots the self-healing loops' counters.
func (c *Coordinator) SelfHealStats() SelfHealStats {
	heal := c.heal.Load()
	if heal == nil {
		return SelfHealStats{}
	}
	return SelfHealStats{
		Enabled:          true,
		Heartbeats:       heal.heartbeats.Load(),
		Suspects:         heal.suspects.Load(),
		Trips:            heal.trips.Load(),
		Demotions:        heal.demotions.Load(),
		DemotionFailures: heal.demotionFailures.Load(),
		Reweights:        heal.reweights.Load(),
		Demoted:          c.Demoted(),
	}
}
