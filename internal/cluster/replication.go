// Replication: the failure-tolerance half of the cluster. Every key
// range lives on an R-member preference list (ring.Owners); this file
// holds what keeps those replicas honest when nodes fail and recover:
//
//   - the per-member circuit breaker (consecutive transport failures
//     trip it; queries and ingest then route around the member),
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
	"math"
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

// noteCall feeds one member call's outcome to the traffic breaker. A
// success resets the consecutive-failure count — and the heartbeat
// suspicion: a successful real call is at least as strong a liveness
// signal as a heartbeat. A transport failure counts against the member
// and trips the breaker once it has failed breakerThreshold calls in a
// row.
func (c *Coordinator) noteCall(m *memberState, err error) {
	if err == nil {
		m.consecFails.Store(0)
		m.suspectFails.Store(0)
		return
	}
	m.errors.Add(1)
	if m.consecFails.Add(1) >= breakerThreshold {
		c.markTripped(m)
	}
}

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

// markTripped opens the member's breaker, recording the trip time and
// the hint high-water mark the demotion deadline counts from. Only the
// first trip in a down episode records; repeat failures while already
// down keep the original deadline clock.
func (c *Coordinator) markTripped(m *memberState) {
	if m.down.CompareAndSwap(false, true) {
		m.downSince.Store(math.Float64bits(c.now()))
		m.hintedAtDown.Store(m.hints.Stats().Hinted)
		m.recoverOKs.Store(0)
		if heal := c.heal.Load(); heal != nil {
			heal.trips.Add(1)
		}
	}
}

// recoverK is how many consecutive successful probes a down member
// needs before it is marked up. With self-healing enabled the detector
// config decides; manual operation keeps the historical single-probe
// recovery (each probe already includes a real hint-drain delivery, so
// even K = 1 cannot flap on a member healthy on NodeStats but faulty
// on Deliver).
func (c *Coordinator) recoverK() int32 {
	if heal := c.heal.Load(); heal != nil && heal.cfg.RecoverAfter > 0 {
		return int32(heal.cfg.RecoverAfter)
	}
	return 1
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
	if down {
		c.markTripped(m)
	} else {
		m.down.Store(false)
		m.consecFails.Store(0)
		m.suspectFails.Store(0)
		m.recoverOKs.Store(0)
	}
	return nil
}

// ProbeDown synchronously probes every tripped member: a cheap
// NodeStats call plus a real hint-drain delivery, so a member that
// answers stats but cannot take writes stays down (no breaker flap).
// A member is marked up after recoverK consecutive successful probes;
// on the down→up transition its ingest transport is flushed once (to
// push out frames buffered before the trip) and any hints that raced
// in are swept. ProbeDown also drains hint buffers stranded on members
// that recovered while a concurrent Send was still hinting at them.
// It returns how many members recovered. Flush schedules it in the
// background every probeEveryFlushes calls; operators, the Tick
// heartbeat loop, and tests may call it directly.
func (c *Coordinator) ProbeDown() int {
	recovered := 0
	k := c.recoverK()
	for _, m := range c.memberList() {
		if !(m.down.Load() || m.hints.Len() > 0) || !m.probing.CompareAndSwap(false, true) {
			continue
		}
		switch {
		case !m.down.Load():
			// Up, but with stranded hints: a Send hinted at the member
			// in the window between its recovery drain and the breaker
			// closing. Sweep them in.
			c.drainHints(m)
		case !c.probeMember(m):
			m.recoverOKs.Store(0)
		case m.recoverOKs.Add(1) >= k:
			m.consecFails.Store(0)
			m.suspectFails.Store(0)
			m.recoverOKs.Store(0)
			m.down.Store(false)
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

// probeMember runs one recovery probe: the cheap NodeStats liveness
// check, then — the part that makes recovery honest — a real delivery
// of the member's drained hints. Probe success requires both; a member
// healthy on stats but faulty on Deliver keeps failing probes and
// stays down instead of flapping up and re-tripping on the next send.
func (c *Coordinator) probeMember(m *memberState) bool {
	if _, err := m.Node.NodeStats(); err != nil {
		m.errors.Add(1)
		return false
	}
	return c.drainHints(m)
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
			if m.down.Load() {
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
	seen := make(map[uint64]bool, len(old.vnodes)+len(next.vnodes))
	bounds := make([]uint64, 0, len(old.vnodes)+len(next.vnodes))
	for _, r := range []*Ring{old, next} {
		for _, v := range r.vnodes {
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
	lo, hi := base/4, base*4
	if lo < 1 {
		lo = 1
	}
	for i := range stats {
		w := base
		if stats[i].Records > 0 {
			w = int(float64(base)*fair/float64(stats[i].Records) + 0.5)
		}
		if w < lo {
			w = lo
		}
		if w > hi {
			w = hi
		}
		weights[stats[i].Name] = w
	}
	return weights
}
