// Fault injection for failure-tolerance tests and the drsim failover,
// selfheal and chaos experiments: an in-process member whose failure
// modes compose — a kill switch (every call fails the way an
// unreachable network peer would), a wedged write path (liveness
// answers, deliveries fail), probabilistic loss bursts (a deterministic
// fraction of deliveries fail), and latency spikes (every call sleeps).
// ChaosPlan sequences such faults, plus arbitrary cluster actions, on
// the experiment clock.

package cluster

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// ErrInjectedFault is what a killed member's calls fail with.
var ErrInjectedFault = errors.New("cluster: injected fault: member unreachable")

// FaultInjector toggles a faulty member between reachable, dead, and
// the half-dead mode that used to flap the breaker: healthy on the
// cheap liveness calls but failing every delivery. Orthogonally it can
// drop a deterministic fraction of deliveries (a loss burst) and delay
// every call (a latency spike).
type FaultInjector struct {
	down, deliverDown atomic.Bool
	latencyNs         atomic.Int64

	lossMu   sync.Mutex
	lossRate float64
	lossRnd  *rand.Rand
}

// Fail makes the member unreachable: every call errors until Recover.
func (f *FaultInjector) Fail() { f.down.Store(true) }

// FailDeliver makes the member half-dead: NodeStats and queries answer
// (the liveness probe sees a healthy node) but Deliver and ingest
// sends fail — a wedged write path behind a live process.
func (f *FaultInjector) FailDeliver() { f.deliverDown.Store(true) }

// Recover makes the member fully reachable again (the coordinator
// still has to probe it back up — see Coordinator.ProbeDown). Loss and
// latency injection are untouched; clear them with SetLossRate(0, 0)
// and SetLatency(0).
func (f *FaultInjector) Recover() {
	f.down.Store(false)
	f.deliverDown.Store(false)
}

// SetLatency makes every call through the member sleep d first — a
// network latency spike. Zero clears it.
func (f *FaultInjector) SetLatency(d time.Duration) { f.latencyNs.Store(d.Nanoseconds()) }

// SetLossRate makes each delivery fail independently with probability
// p, drawn from a deterministic seeded stream — a partial loss burst
// that exercises hinting and re-convergence without tripping behaviour
// depending on the wall clock. Zero p clears it.
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

// NewFaultyMember returns an in-process member wired through inj: while
// inj is failed, its queries, admin calls and ingest sends all error.
func NewFaultyMember(name string, node *locserv.NodeService) (*Member, *FaultInjector) {
	inj := &FaultInjector{}
	return &Member{
		Name:   name,
		Node:   faultyNode{n: node, inj: inj},
		Ingest: faultyTransport{tr: nodeLoopback(node), inj: inj},
	}, inj
}

// faultyNode fails every Node call while the injector is down. The
// optional Node capabilities a coordinator probes for (metrics
// snapshots, trace binding) are forwarded, so a fault-injected cluster
// is observed like any other.
type faultyNode struct {
	n   locserv.Node
	inj *FaultInjector
}

// ObsSnapshot implements locserv.ObsSnapshotter by forwarding.
func (x faultyNode) ObsSnapshot() (obs.Snapshot, error) {
	x.inj.delay()
	if x.inj.Down() {
		return obs.Snapshot{}, ErrInjectedFault
	}
	os, ok := x.n.(locserv.ObsSnapshotter)
	if !ok {
		return obs.Snapshot{}, errors.New("cluster: wrapped node does not export metrics")
	}
	return os.ObsSnapshot()
}

// BindTrace implements locserv.TraceBinder by forwarding: the wrapped
// node's bound view stays behind the same injector.
func (x faultyNode) BindTrace(trace uint64, spans *[]wire.Span) locserv.Node {
	if tb, ok := x.n.(locserv.TraceBinder); ok {
		x.n = tb.BindTrace(trace, spans)
	}
	return x
}

func (x faultyNode) Register(id locserv.ObjectID) error {
	x.inj.delay()
	if x.inj.Down() {
		return ErrInjectedFault
	}
	return x.n.Register(id)
}

func (x faultyNode) Deregister(id locserv.ObjectID) error {
	x.inj.delay()
	if x.inj.Down() {
		return ErrInjectedFault
	}
	return x.n.Deregister(id)
}

func (x faultyNode) Deliver(recs []wire.Record) (int, error) {
	x.inj.delay()
	if x.inj.deliverFails() {
		return 0, ErrInjectedFault
	}
	return x.n.Deliver(recs)
}

func (x faultyNode) Position(id locserv.ObjectID, t float64) (geo.Point, uint32, bool, error) {
	x.inj.delay()
	if x.inj.Down() {
		return geo.Point{}, 0, false, ErrInjectedFault
	}
	return x.n.Position(id, t)
}

func (x faultyNode) Nearest(p geo.Point, k int, t float64) ([]locserv.ObjectPos, error) {
	x.inj.delay()
	if x.inj.Down() {
		return nil, ErrInjectedFault
	}
	return x.n.Nearest(p, k, t)
}

func (x faultyNode) Within(r geo.Rect, t float64) ([]locserv.ObjectPos, error) {
	x.inj.delay()
	if x.inj.Down() {
		return nil, ErrInjectedFault
	}
	return x.n.Within(r, t)
}

func (x faultyNode) Export(lo, hi uint64) ([]wire.Record, []locserv.ObjectID, error) {
	x.inj.delay()
	if x.inj.Down() {
		return nil, nil, ErrInjectedFault
	}
	return x.n.Export(lo, hi)
}

func (x faultyNode) NodeStats() (locserv.NodeStats, error) {
	x.inj.delay()
	if x.inj.Down() {
		return locserv.NodeStats{}, ErrInjectedFault
	}
	return x.n.NodeStats()
}

// faultyTransport fails Send while the injector is down. Flush stays a
// no-op (the loopback has nothing in flight), so a dead member never
// blocks the cluster-wide flush.
type faultyTransport struct {
	tr  wire.Transport
	inj *FaultInjector
}

func (x faultyTransport) Send(now float64, batch []wire.Record) error {
	x.inj.delay()
	if x.inj.deliverFails() {
		return ErrInjectedFault
	}
	return x.tr.Send(now, batch)
}

func (x faultyTransport) Flush(now float64) error {
	if x.inj.Down() {
		return nil
	}
	return x.tr.Flush(now)
}

func (x faultyTransport) Stats() wire.Stats { return x.tr.Stats() }
