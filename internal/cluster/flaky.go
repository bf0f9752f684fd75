// Fault injection for failure-tolerance tests and the drsim cluster
// drills: an in-process member whose member stream passes every frame
// through one gate before the node answers it. Its failure modes
// compose — a kill switch (every frame fails the way an unreachable
// network peer would), a wedged write path (query frames answer, update
// frames fail), probabilistic loss bursts (a deterministic fraction of
// update frames fail), and latency spikes (every frame waits). ChaosPlan
// sequences such faults, plus arbitrary cluster actions, on the
// experiment clock.

package cluster

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// ErrInjectedFault is what a killed member's calls fail with.
var ErrInjectedFault = errors.New("cluster: injected fault: member unreachable")

// FaultInjector is the gate of one faulty member's stream. It toggles
// the member between reachable, dead, and the half-dead mode that used
// to flap the breaker: healthy on the cheap liveness calls but failing
// every delivery. Orthogonally it can drop a deterministic fraction of
// update frames (a loss burst) and delay every frame (a latency spike).
type FaultInjector struct {
	down, deliverDown atomic.Bool
	latencyNs         atomic.Int64

	lossMu   sync.Mutex
	lossRate float64
	lossRnd  *rand.Rand
}

// Fail makes the member unreachable: every call errors until Recover.
func (f *FaultInjector) Fail() { f.down.Store(true) }

// FailDeliver makes the member half-dead: query frames answer (the
// liveness probe sees a healthy node) but update frames fail — a wedged
// write path behind a live process.
func (f *FaultInjector) FailDeliver() { f.deliverDown.Store(true) }

// Recover makes the member fully reachable again (the coordinator
// still has to probe it back up — see Coordinator.ProbeDown). Loss and
// latency injection are untouched; clear them with SetLossRate(0, 0)
// and SetLatency(0).
func (f *FaultInjector) Recover() {
	f.down.Store(false)
	f.deliverDown.Store(false)
}

// SetLatency makes every frame to the member sleep d first — a network
// latency spike. Zero clears it.
func (f *FaultInjector) SetLatency(d time.Duration) { f.latencyNs.Store(d.Nanoseconds()) }

// SetLossRate makes each update frame fail independently with
// probability p, drawn from a deterministic seeded stream — a partial
// loss burst that exercises hinting and re-convergence without tripping
// behaviour depending on the wall clock. Zero p clears it.
func (f *FaultInjector) SetLossRate(p float64, seed int64) {
	f.lossMu.Lock()
	f.lossRate = p
	if p > 0 {
		f.lossRnd = rand.New(rand.NewSource(seed))
	} else {
		f.lossRnd = nil
	}
	f.lossMu.Unlock()
}

// Down reports whether the member is currently unreachable.
func (f *FaultInjector) Down() bool { return f.down.Load() }

// delay applies the configured latency spike, if any.
func (f *FaultInjector) delay() {
	if ns := f.latencyNs.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// gate decides one frame to the member: every frame waits out the
// latency spike; while the member is down every frame fails, and an
// update frame also fails while the write path is wedged or when the
// loss burst draws a drop.
func (f *FaultInjector) gate(kind byte) error {
	f.delay()
	if f.Down() || (kind == wire.StreamUpdate && f.deliverFails()) {
		return ErrInjectedFault
	}
	return nil
}

// deliverFails reports whether this delivery fails: the member is down,
// its write path is wedged, or the loss burst drew a drop.
func (f *FaultInjector) deliverFails() bool {
	if f.down.Load() || f.deliverDown.Load() {
		return true
	}
	f.lossMu.Lock()
	defer f.lossMu.Unlock()
	return f.lossRnd != nil && f.lossRnd.Float64() < f.lossRate
}

// ChaosEvent is one scheduled fault action on the experiment clock.
type ChaosEvent struct {
	// At is the experiment time (transport-clock units) the event fires
	// at or after.
	At float64
	// Name labels the event in the fired log.
	Name string
	// Do performs the action: flip an injector, begin a migration, kill
	// a member.
	Do func()
}

// ChaosPlan fires a scripted sequence of fault events as the experiment
// clock advances — the composable harness the chaos experiment drives
// joins, leaves, kills, loss bursts and reweights with. Safe for
// concurrent use.
type ChaosPlan struct {
	mu     sync.Mutex
	events []ChaosEvent
	next   int
	fired  []string
}

// NewChaosPlan returns a plan over the given events, ordered by At
// (stable for ties, so same-time events fire in argument order).
func NewChaosPlan(events ...ChaosEvent) *ChaosPlan {
	p := &ChaosPlan{events: append([]ChaosEvent(nil), events...)}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].At < p.events[j].At })
	return p
}

// Advance fires every not-yet-fired event due at or before now, in
// order, and returns their names.
func (p *ChaosPlan) Advance(now float64) []string {
	var fired []string
	for {
		p.mu.Lock()
		if p.next >= len(p.events) || p.events[p.next].At > now {
			p.mu.Unlock()
			return fired
		}
		ev := p.events[p.next]
		p.next++
		p.fired = append(p.fired, ev.Name)
		p.mu.Unlock()
		// Run outside the plan lock: an event may advance a clock that
		// re-enters Advance.
		ev.Do()
		fired = append(fired, ev.Name)
	}
}

// Fired returns the names of the events fired so far, in order.
func (p *ChaosPlan) Fired() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.fired...)
}

// Remaining returns how many events have not fired yet.
func (p *ChaosPlan) Remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events) - p.next
}

// NewFaultyMember returns an in-process member wired through inj: the
// node's member stream without a socket, as NewLocalMember builds it,
// with inj's gate checked before the node answers each frame.
func NewFaultyMember(name string, node *locserv.NodeService) (*Member, *FaultInjector) {
	inj := &FaultInjector{}
	return streamMember(name, "", wire.NewGatedStreamLoopback(node.StreamServer(), inj.gate)), inj
}
