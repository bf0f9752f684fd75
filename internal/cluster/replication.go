// Replication: the failure-tolerance half of the cluster. Every key
// range lives on an R-member preference list (ring.Owners); this file
// holds what keeps those replicas honest when nodes fail and recover:
//
//   - each member's health word and its one step function: the
//     circuit breaker (consecutive failed calls), the heartbeat
//     detector (consecutive missed beats, membership.go) and the
//     recovery probes (consecutive clean probes) are events of one
//     transition table, and queries and ingest route around a member
//     it holds down,
//   - recovery probes and hinted-handoff draining (updates buffered
//     while a member was down are replayed on first contact — safe
//     because replicas are idempotent per (id, Seq)),
//   - background read repair (a replica observed answering with a stale
//     Seq gets the winning record pushed back at it),
//   - the preference-list diff (diffPreferenceLists) the live migration
//     engine (migration.go) plans AddNode/RemoveNode/Reweight from, and
//   - load-derived vnode weights (BalancedWeights).

package cluster

import (
	"fmt"
	"sort"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

const (
	// breakerThreshold is how many consecutive transport failures trip a
	// member's circuit breaker. Application-level errors (a rejected
	// registration, say) do not count — only failures of the calls the
	// coordinator retries elsewhere anyway.
	breakerThreshold = 3
	// probeEveryFlushes paces recovery probes off the ingest clock: every
	// Nth Flush checks the tripped members in the background.
	probeEveryFlushes = 8
)

// Health is the liveness detector's verdict on a member, decoded from
// its health word (hstate), which step alone writes.
type Health int8

const (
	// HealthUp: the member answers heartbeats and deliveries.
	HealthUp Health = iota
	// HealthSuspect: between up and down — heartbeats are failing but
	// the breaker has not tripped, or the member is down but partway
	// through the K-probe recovery.
	HealthSuspect
	// HealthDown: the breaker is open; ingest hints, queries skip.
	HealthDown
)

// String returns the state name the /cluster endpoint reports.
func (h Health) String() string { return [...]string{"up", "suspect", "down"}[h] }

// hstate is a member's health word: its mode and the runs live in it.
// Up, the low 16 bits count consecutive failed calls and the next 16
// consecutive missed beats; down (hDown set), the low 16 bits count
// consecutive clean probes. A run that reaches its threshold changes the
// mode, and the new mode's runs start at zero: the zero word is up.
type hstate uint64

const hDown hstate = 1 << 32

func (s hstate) down() bool     { return s&hDown != 0 }
func (s hstate) calls() uint16  { return uint16(s) }
func (s hstate) beats() uint16  { return uint16(s >> 16) }
func (s hstate) probes() uint16 { return uint16(s) }

func (s hstate) health() Health {
	switch {
	case s == hDown:
		return HealthDown
	case s.down() || s.beats() > 0: // recovering, or missing beats
		return HealthSuspect
	}
	return HealthUp
}

// healthEvent is one input to a member's health word. Each ok event is
// followed by its failed twin.
type healthEvent uint8

const (
	evCallOK healthEvent = iota
	evCallFailed
	evBeatOK
	evBeatFailed
	evProbeOK
	evProbeFailed
	evMarkDown
	evMarkUp
)

// healthLimits are the run thresholds besides breakerThreshold:
// SuspectAfter missed beats trip a member, K clean probes recover it.
// Without self-healing no beats are sent and K = 1: each probe includes
// a real hint-drain delivery, so even one cannot flap a member healthy
// on NodeStats but faulty on Deliver.
type healthLimits struct{ beats, probes uint16 }

func limits(heal *selfHeal) healthLimits {
	if heal == nil {
		return healthLimits{uint16(DefaultSelfHealConfig().SuspectAfter), 1}
	}
	return healthLimits{uint16(min(heal.cfg.SuspectAfter, 0xFFFF)), uint16(min(heal.cfg.RecoverAfter, 0xFFFF))}
}

// next is the transition table, which README's "Liveness detection"
// lists. Up, a failure extends its own run and trips the member once the
// run reaches its threshold; a call ok clears both runs but a beat ok
// only the beat run, so a member faulty on Deliver but healthy on stats
// cannot reset its breaker. Down, only probes count, and the K-th clean
// one in a row brings the member up.
func (s hstate) next(ev healthEvent, lim healthLimits) hstate {
	if s.down() {
		switch {
		case ev == evMarkUp, ev == evProbeOK && s.probes()+1 >= lim.probes:
			return 0
		case ev == evProbeOK:
			return s + 1
		case ev == evProbeFailed:
			return hDown
		}
		return s
	}
	switch {
	case ev == evCallOK, ev == evMarkUp:
		return 0
	case ev == evMarkDown, ev == evCallFailed && s.calls()+1 >= breakerThreshold,
		ev == evBeatFailed && s.beats()+1 >= lim.beats:
		return hDown
	case ev == evCallFailed:
		return s + 1
	case ev == evBeatOK:
		return s &^ (0xFFFF << 16)
	case ev == evBeatFailed:
		return s + 1<<16
	}
	return s
}

// step feeds one event to the member's health word, its only writer,
// and returns the states before and after. A call ok on a clean up
// member is one load and no store. Other events run under hmu, so the
// step that takes a member down writes that episode's trip record
// before a reader holding hmu can see the down word. The self-healing
// trip and suspicion counts are bumped here and nowhere else.
func (c *Coordinator) step(m *memberState, ev healthEvent) (from, to hstate) {
	if from = m.state(); ev == evCallOK && from == 0 {
		return from, from
	}
	heal := c.heal.Load()
	m.hmu.Lock()
	from = m.state()
	to = from.next(ev, limits(heal))
	if !from.down() && to.down() {
		m.trip = tripRecord{since: c.now(), hinted: m.hints.Stats().Hinted}
	}
	m.hstate.Store(uint64(to))
	m.hmu.Unlock()
	if heal != nil && !from.down() && to.down() {
		heal.trips.Add(1)
	}
	if heal != nil && from.health() == HealthUp && to.health() == HealthSuspect {
		heal.suspects.Add(1)
	}
	return from, to
}

// outcome maps a call's result to ok's event, or to its failed twin —
// counting the failure — when err is set.
func (m *memberState) outcome(ok healthEvent, err error) healthEvent {
	if err != nil {
		m.errors.Add(1)
		return ok + 1
	}
	return ok
}

// noteCall feeds one member call's outcome to the breaker: a transport
// failure counts against the member and breakerThreshold in a row trip
// it; a success clears the failed-call run and the heartbeat suspicion,
// since a real call is at least as strong a liveness signal as a beat.
func (c *Coordinator) noteCall(m *memberState, err error) { c.step(m, m.outcome(evCallOK, err)) }

// noteErr is the policy of calls whose failure is the node's own answer
// or is retried by a later call anyway (registry calls, Flush): counted,
// never held against the breaker.
func (c *Coordinator) noteErr(m *memberState, err error) {
	if err != nil {
		m.errors.Add(1)
	}
}

// noteQuery is noteCall for a scatter/route query call, which also
// advances the member's query counter.
func (c *Coordinator) noteQuery(m *memberState, err error) {
	m.queries.Add(1)
	c.noteCall(m, err)
}

// MarkDown forces a member's breaker open or closed — operational
// override for planned maintenance (and deterministic failure tests).
// Closing it does not drain hints; use ProbeDown for a verified
// recovery.
func (c *Coordinator) MarkDown(name string, down bool) error {
	m := c.lookup(name)
	if m == nil {
		return fmt.Errorf("cluster: unknown member %q", name)
	}
	ev := evMarkUp
	if down {
		ev = evMarkDown
	}
	c.step(m, ev)
	return nil
}

// ProbeDown synchronously probes every tripped member: a cheap
// NodeStats call plus a real hint-drain delivery, so a member that
// answers stats but cannot take writes stays down (no breaker flap).
// A member is marked up after K (RecoverAfter; 1 without self-healing)
// consecutive successful probes; on the down→up transition its ingest
// transport is flushed once (to push out frames buffered before the
// trip) and any hints that raced in are swept. ProbeDown also drains hint buffers stranded on members
// that recovered while a concurrent Send was still hinting at them.
// It returns how many members recovered. Flush schedules it in the
// background every probeEveryFlushes calls; operators, the Tick
// heartbeat loop, and tests may call it directly.
func (c *Coordinator) ProbeDown() int {
	recovered := 0
	for _, m := range c.memberList() {
		if !(m.state().down() || m.hints.Len() > 0) || !m.probing.CompareAndSwap(false, true) {
			continue
		}
		if !m.state().down() {
			// Up, but with stranded hints: a Send hinted at the member
			// in the window between its recovery drain and the breaker
			// closing. Sweep them in.
			c.drainHints(m)
		} else if from, to := c.step(m, c.probeMember(m)); from.down() && !to.down() {
			// Frames buffered in the member's transport before the trip
			// were never flushed while it was down; push them now so the
			// recovered member does not serve a hole.
			if m.Ingest != nil {
				if err := m.Ingest.Flush(c.now()); err != nil {
					m.errors.Add(1)
				}
			}
			// Sweep hints that raced in between the probe drain and the
			// breaker closing.
			c.drainHints(m)
			recovered++
		}
		m.probing.Store(false)
	}
	return recovered
}

// probeMember runs one recovery probe and returns its event: the cheap
// NodeStats liveness check, then — the part that makes recovery honest
// — a real delivery of the member's drained hints. A probe ok needs
// both; a member
// healthy on stats but faulty on Deliver keeps failing probes and
// stays down instead of flapping up and re-tripping on the next send.
func (c *Coordinator) probeMember(m *memberState) healthEvent {
	if _, err := m.Node.NodeStats(); m.outcome(evProbeOK, err) == evProbeOK && c.drainHints(m) {
		return evProbeOK
	}
	return evProbeFailed
}

// drainHints replays a member's buffered updates and reports whether
// they landed (trivially so when there were none). The buffer holds one
// freshest record per object, so the replay is one bounded delivery;
// anything the member learned in the meantime wins its per-Seq gate. A
// failed replay counts against the breaker and re-buffers the records
// through Readd — capacity-exempt, because a drained record may be the
// only surviving copy of its object and must never be dropped by a
// buffer that refilled mid-drain — for the next probe.
func (c *Coordinator) drainHints(m *memberState) bool {
	recs := m.hints.Drain()
	if len(recs) == 0 {
		return true
	}
	_, err := m.Node.Deliver(recs)
	c.noteCall(m, err)
	if err != nil {
		m.hints.Readd(recs)
		return false
	}
	m.records.Add(int64(len(recs)))
	return true
}

// scheduleRepairs starts background read repair for every divergence a
// merged scatter answer exposed; callers hold the routing table (part
// indices map to its scatter order).
func (c *Coordinator) scheduleRepairs(stale []locserv.Divergence) {
	order := c.scatterOrder()
	for _, d := range stale {
		targets := make([]*memberState, 0, len(d.StaleParts))
		for _, pi := range d.StaleParts {
			targets = append(targets, c.member(order[pi]))
		}
		c.spawnRepair(d.ID, c.member(order[d.FreshPart]), targets)
	}
}

// spawnRepair pushes the freshest copy of id from the fresh member at
// the stale ones, in the background, at most once concurrently per
// object. The copy travels as an Export of id's exact key hash — the
// full report with its Seq — so the stale replica's own gate applies it
// only if it is genuinely behind.
func (c *Coordinator) spawnRepair(id locserv.ObjectID, fresh *memberState, targets []*memberState) {
	if c.Replicas() < 2 || len(targets) == 0 {
		return
	}
	c.repairMu.Lock()
	if c.repairing[id] {
		c.repairMu.Unlock()
		return
	}
	c.repairing[id] = true
	c.repairMu.Unlock()
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		defer func() {
			c.repairMu.Lock()
			delete(c.repairing, id)
			c.repairMu.Unlock()
		}()
		h := wire.KeyHash(string(id))
		// (h-1, h] selects exactly hash h; ids colliding on the full
		// 64-bit hash share the preference list, so shipping them along
		// is harmless.
		recs, _, err := fresh.Node.Export(h-1, h)
		if err != nil {
			fresh.errors.Add(1)
			return
		}
		if len(recs) == 0 {
			return
		}
		for _, m := range targets {
			if m.state().down() {
				continue
			}
			_, err := m.Node.Deliver(recs)
			c.noteCall(m, err)
			if err == nil {
				c.repairs.Add(1)
			}
		}
	}()
}

// WaitRepairs blocks until every scheduled read repair has finished —
// determinism for tests and drain-before-shutdown for operators.
func (c *Coordinator) WaitRepairs() { c.repairWG.Wait() }

// arcMove is the handoff plan for one elementary ring arc (lo, hi]
// whose owner preference list changes in a migration: adds import the
// range, drops give it up, sources are the previous owners that can
// export it.
type arcMove struct {
	lo, hi  uint64
	sources []string
	adds    []string
	drops   []string
}

// diffPreferenceLists compares the R-owner preference lists of every
// elementary arc — the ring segments between consecutive vnode
// positions of either ring — and returns the arcs whose owner set
// changes. Boundaries come from both rings, so within one arc both
// preference lists are constant.
func diffPreferenceLists(old, next *Ring, rf int) []arcMove {
	seen := make(map[uint64]bool, len(old.points)+len(next.points))
	bounds := make([]uint64, 0, len(old.points)+len(next.points))
	for _, r := range []*Ring{old, next} {
		for _, v := range r.points {
			if !seen[v.pos] {
				seen[v.pos] = true
				bounds = append(bounds, v.pos)
			}
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	n := len(bounds)
	var moves []arcMove
	for i := 0; i < n; i++ {
		hi := bounds[i]
		lo := bounds[(i+n-1)%n]
		// n == 1 leaves lo == hi, which InKeyRange reads as the whole
		// ring — exactly right for a single-vnode ring.
		ownersOld := old.ownersAppendAt(nil, hi, rf)
		ownersNew := next.ownersAppendAt(nil, hi, rf)
		adds := subtractNames(ownersNew, ownersOld)
		drops := subtractNames(ownersOld, ownersNew)
		if len(adds) == 0 && len(drops) == 0 {
			continue
		}
		moves = append(moves, arcMove{lo: lo, hi: hi, sources: ownersOld, adds: adds, drops: drops})
	}
	return moves
}

// subtractNames returns the members of a not in b, preserving order.
func subtractNames(a, b []string) []string {
	var out []string
	for _, name := range a {
		if !containsName(b, name) {
			out = append(out, name)
		}
	}
	return out
}

// BalancedWeights derives per-member vnode counts from the
// coordinator's routing counters: members that received more than
// their fair share of routed records get proportionally fewer vnodes,
// members that received less get more, clamped to [base/4, base*4] so
// one noisy interval cannot evacuate a node. base is the default vnode
// count (<= 0 selects DefaultVnodes); members with no recorded traffic
// keep it. Feed the result to Coordinator.Reweight.
func BalancedWeights(base int, stats []MemberStats) map[string]int {
	if base <= 0 {
		base = DefaultVnodes
	}
	total := int64(0)
	for i := range stats {
		total += stats[i].Records
	}
	weights := make(map[string]int, len(stats))
	if total == 0 || len(stats) == 0 {
		for i := range stats {
			weights[stats[i].Name] = base
		}
		return weights
	}
	fair := float64(total) / float64(len(stats))
	lo, hi := max(base/4, 1), base*4
	for i := range stats {
		w := base
		if stats[i].Records > 0 {
			w = int(float64(base)*fair/float64(stats[i].Records) + 0.5)
		}
		weights[stats[i].Name] = min(max(w, lo), hi)
	}
	return weights
}
