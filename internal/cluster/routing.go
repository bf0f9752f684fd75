// Routing table: the one home of the coordinator's routing state — the
// ring, the replication factor, the member set with its scatter order,
// and the dual routes of a migration in flight — and of the lock that
// guards them (see the package comment for the lock order and why
// routed fan-outs hold the read side). Nothing outside this file reads
// or writes those fields. The migration driver and the fan-in follower
// both derive a migrationPlan with plan() and move the table with the
// same three transitions — enter, commit, rollback — so every
// coordinator front routes a migration alike.

package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

type routingTable struct {
	mu      sync.RWMutex
	ring    *Ring
	rf      int
	members map[string]*memberState
	order   []string // sorted member names: deterministic scatter order
	// duals are the moves of the migration in flight, all published by
	// enter: writes for keys in a move's (lo, hi] fan out to its adds
	// alongside the ring owners, and reads include them in the
	// freshest-Seq merge.
	duals []arcMove

	maxHold atomic.Int64 // longest write-lock hold, nanoseconds
}

// newRoutingTable returns the table of a cluster replicating every key
// range to rf distinct members (<= 0 selects 1) over a ring of vnodes
// virtual nodes per member (<= 0 selects DefaultVnodes).
func newRoutingTable(vnodes, rf int, members ...*Member) (*routingTable, error) {
	if rf <= 0 {
		rf = 1
	}
	t := &routingTable{rf: rf, members: make(map[string]*memberState, len(members))}
	names := make([]string, len(members))
	for i, m := range members {
		if _, dup := t.members[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", m.Name)
		}
		t.members[m.Name] = newMemberState(m)
		names[i] = m.Name
	}
	var err error
	if t.ring, err = NewRing(vnodes, names...); err != nil {
		return nil, err
	}
	t.reorder()
	return t, nil
}

// reorder re-derives the scatter order; callers hold the write lock.
func (t *routingTable) reorder() {
	t.order = t.order[:0]
	for name := range t.members {
		t.order = append(t.order, name)
	}
	sort.Strings(t.order)
}

// hold takes the read side for a routed fan-out and release drops it;
// member, scatterOrder, ownersFor, route, lostRecords and disjoint are
// valid in between.
func (t *routingTable) hold()    { t.mu.RLock() }
func (t *routingTable) release() { t.mu.RUnlock() }

// member returns the named member, nil when unknown; callers hold.
func (t *routingTable) member(name string) *memberState { return t.members[name] }

// scatterOrder returns the member names in scatter order; callers hold,
// and the slice is only valid until release.
func (t *routingTable) scatterOrder() []string { return t.order }

// disjoint reports whether every record routes to exactly one member:
// no replication and no dual route in flight. Callers hold.
func (t *routingTable) disjoint() bool { return t.rf == 1 && len(t.duals) == 0 }

// Replicas returns the replication factor R. The effective copy count
// of a key range is min(R, live members).
func (t *routingTable) Replicas() int { return t.rf }

// Nodes returns the member names in scatter order.
func (t *routingTable) Nodes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.order...)
}

// Owners returns id's full preference list: the R members holding its
// replicas.
func (t *routingTable) Owners(id locserv.ObjectID) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ring.Owners(string(id), t.rf)
}

// vnodes returns a member's virtual-node count on the current ring.
func (t *routingTable) vnodes(name string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ring.Vnodes(name)
}

// lookup returns the named member, nil when unknown.
func (t *routingTable) lookup(name string) *memberState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.members[name]
}

// memberList snapshots the members in scatter order — the one member
// walk: callers that probe, scrape or sample members call them from the
// snapshot, outside the lock.
func (t *routingTable) memberList() []*memberState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*memberState, len(t.order))
	for i, name := range t.order {
		out[i] = t.members[name]
	}
	return out
}

// ownersFor returns id's routing owner set reusing dst's backing
// array: the ring preference list plus — while a migration has the
// id's range in transition — the dual-range adds, so old and new
// owners are written and read alike until the commit. The ring owners
// come first, so freshest-Seq ties keep resolving to the same member
// they did before the migration started. Callers hold; with no
// migration in flight the dual scan is a nil-slice check.
func (t *routingTable) ownersFor(dst []string, id string) []string {
	h := wire.KeyHash(id)
	dst = t.ring.ownersAppendAt(dst, h, t.rf)
	for i := range t.duals {
		d := &t.duals[i]
		if !wire.InKeyRange(h, d.lo, d.hi) {
			continue
		}
		for _, name := range d.adds {
			if !containsName(dst, name) {
				dst = append(dst, name)
			}
		}
	}
	return dst
}

func containsName(names []string, name string) bool {
	for _, have := range names {
		if have == name {
			return true
		}
	}
	return false
}

// routeScratch is the reusable partition state of route(): the
// per-member record slices and the owners scratch keep their backing
// arrays between batches, so steady-state routing allocates nothing.
type routeScratch struct {
	parts   map[string][]wire.Record
	owners  []string
	targets []string // members with a non-empty partition, in scatter order
	noID    []int    // indices of the batch's records without an id
}

var routePool = sync.Pool{
	New: func() any { return &routeScratch{parts: make(map[string][]wire.Record)} },
}

// releaseRouteScratch truncates the partitions (keeping capacity) and
// returns the scratch to the pool. Safe once every consumer of the
// partition slices has returned: transports, sinks and hint buffers
// all copy records out before their call completes.
func releaseRouteScratch(scr *routeScratch) {
	for name, part := range scr.parts {
		scr.parts[name] = part[:0]
	}
	routePool.Put(scr)
}

// route partitions a batch per member of each record's preference list
// — plus any dual-range adds while a migration is in flight —
// preserving each record's relative order, and leaves the members that
// got a partition in scr.targets; callers hold, own scr for the
// duration of the call and release it once the partitions are consumed.
// Every record appears in all its owners' partitions, except that a
// record without an id is skipped, as a store skips it, and its index
// left in scr.noID.
func (t *routingTable) route(scr *routeScratch, batch []wire.Record) (map[string][]wire.Record, error) {
	parts := scr.parts
	owners := scr.owners
	defer func() { scr.owners = owners }()
	scr.noID = scr.noID[:0]
	for i := range batch {
		if batch[i].ID == "" {
			scr.noID = append(scr.noID, i)
			continue
		}
		owners = t.ownersFor(owners[:0], batch[i].ID)
		if len(owners) == 0 {
			return nil, fmt.Errorf("cluster: no member owns %q", batch[i].ID)
		}
		for _, name := range owners {
			if _, ok := t.members[name]; !ok {
				return nil, fmt.Errorf("cluster: no member owns %q", batch[i].ID)
			}
			parts[name] = append(parts[name], batch[i])
		}
	}
	scr.targets = scr.targets[:0]
	for _, name := range t.order {
		if len(parts[name]) > 0 {
			scr.targets = append(scr.targets, name)
		}
	}
	return parts, nil
}

// lostRecords counts the batch records none of whose owners accepted
// delivery (failed names the members that did not take their
// partition); callers hold. The owner set is the one route()
// partitioned by — ring owners plus in-migration dual adds — so a record
// its joining owner accepted is not lost. Those records exist only as
// hints until a replica recovers.
func (t *routingTable) lostRecords(batch []wire.Record, failed map[string]bool) int {
	if len(failed) == 0 {
		return 0
	}
	lost := 0
	owners := make([]string, 0, t.rf)
	for i := range batch {
		if batch[i].ID == "" { // never routed: route skipped it
			continue
		}
		owners = t.ownersFor(owners[:0], batch[i].ID)
		alive := false
		for _, name := range owners {
			if !failed[name] {
				alive = true
				break
			}
		}
		if !alive {
			lost++
		}
	}
	return lost
}

// Migration run kinds.
const (
	migJoin     = "join"
	migLeave    = "leave"
	migReweight = "reweight"
)

// LogBegin MigKind values (the wire encoding of the run kinds).
const (
	migKindJoin uint8 = iota + 1
	migKindLeave
	migKindReweight
)

// beginRecord describes a membership change as the LogBegin record
// that replicates it; weights go sorted by name, so identical changes
// are byte-identical on the log.
func beginRecord(kind uint8, target, addr string, weights map[string]int) wire.LogRecord {
	rec := wire.LogRecord{Kind: wire.LogBegin, MigKind: kind, Target: target, Addr: addr}
	for name, w := range weights {
		rec.Weights = append(rec.Weights, wire.NameWeight{Name: name, W: float64(w)})
	}
	sort.Slice(rec.Weights, func(i, j int) bool { return rec.Weights[i].Name < rec.Weights[j].Name })
	return rec
}

// migrationPlan is one membership change worked out against a table:
// the ring it leads to and the elementary arcs whose owners change on
// the way. The driver's run embeds it, the fan-in log's open runs are
// plans, and the three transitions below take nothing else.
type migrationPlan struct {
	kind    string // migJoin, migLeave or migReweight
	target  string // joining/leaving member name; "" for reweight
	joining *memberState
	from    *Ring // the ring the plan was derived from
	next    *Ring
	moves   []arcMove
	logRun  uint64 // the Begin record's epoch, the run's id on the fan-in log; 0 = not logged
}

func (p *migrationPlan) label() string {
	if p.target == "" {
		return p.kind
	}
	return p.kind + " " + p.target
}

// plan derives the migration plan of the change a LogBegin record
// describes against the current table: validate it, build the next
// ring from the member names and vnode weights the change leads to,
// diff the preference lists. joining is the caller's own handle on the
// node a join adds. Rings are deterministic functions of names and
// weights, so every coordinator deriving the same record from the same
// table gets the same plan. The table is untouched until enter.
func (t *routingTable) plan(rec wire.LogRecord, joining *Member) (*migrationPlan, error) {
	p := &migrationPlan{target: rec.Target}
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := t.ring.Nodes()
	weights := make(map[string]int, len(t.ring.weights)+len(rec.Weights))
	for name, w := range t.ring.weights {
		weights[name] = w
	}
	switch rec.MigKind {
	case migKindJoin:
		if _, dup := t.members[rec.Target]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", rec.Target)
		}
		p.kind, p.joining = migJoin, newMemberState(joining)
		names = append(names, rec.Target)
	case migKindLeave:
		if !t.ring.names[rec.Target] {
			return nil, fmt.Errorf("cluster: unknown member %q", rec.Target)
		}
		if len(t.members) == 1 {
			return nil, fmt.Errorf("cluster: cannot remove the last member %q", rec.Target)
		}
		p.kind = migLeave
		names = slices.DeleteFunc(names, func(name string) bool { return name == rec.Target })
		delete(weights, rec.Target)
	case migKindReweight:
		p.kind = migReweight
		for _, nw := range rec.Weights {
			w := int(nw.W)
			if w <= 0 {
				return nil, fmt.Errorf("cluster: vnode weight %d for %q", w, nw.Name)
			}
			if !t.ring.names[nw.Name] {
				return nil, fmt.Errorf("cluster: weight for unknown member %q", nw.Name)
			}
			weights[nw.Name] = w
		}
	default:
		return nil, fmt.Errorf("cluster: unknown migration kind %d", rec.MigKind)
	}
	var err error
	if p.next, err = NewWeightedRing(t.ring.vnodes, weights, names...); err != nil {
		return nil, err
	}
	p.from = t.ring
	p.moves = diffPreferenceLists(t.ring, p.next, t.rf)
	return p, nil
}

// swap runs one write transition under the write lock and keeps the
// longest hold (MigrationStats.MaxSwapNanos, the O(1)-swap proof).
func (t *routingTable) swap(transition func()) {
	t.mu.Lock()
	t0 := time.Now()
	transition()
	ns := time.Since(t0).Nanoseconds()
	t.mu.Unlock()
	for {
		cur := t.maxHold.Load()
		if ns <= cur || t.maxHold.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// enter opens a plan: a joining member enters the scatter set and
// every move's range is dual-routed onto its adds, under one lock hold.
// Every run opens this way — driven solo, driven on the fan-in log, or
// followed from it — so all coordinators route a run alike from its
// Begin on. A plan derived from a ring the table has since left is
// refused.
func (t *routingTable) enter(p *migrationPlan) (err error) {
	t.swap(func() {
		switch _, dup := t.members[p.target]; {
		case t.ring != p.from:
			err = fmt.Errorf("cluster: %s planned against a superseded ring", p.label())
			return
		case p.joining == nil: // a leave or reweight enters nobody
		case dup:
			err = fmt.Errorf("cluster: duplicate member %q", p.target)
			return
		default:
			t.members[p.target] = p.joining
			t.reorder()
		}
		for _, mv := range p.moves {
			if len(mv.adds) > 0 {
				t.duals = append(t.duals, mv)
			}
		}
	})
	return err
}

// dropTarget is a range copy a commit superseded or a rollback
// abandoned.
type dropTarget struct {
	m      *memberState
	lo, hi uint64
}

// commit swaps the router onto the plan's next ring, clears the dual
// routes and completes a leave, and returns the copies the new ring no
// longer routes to (the driver removes them; followers ignore them). A
// leaving member is gone from the table by then: it keeps its data,
// simply stops being asked, and is hung up on.
func (t *routingTable) commit(p *migrationPlan) (drops []dropTarget) {
	var gone *memberState
	t.swap(func() {
		t.ring = p.next
		t.duals = t.duals[:0]
		if p.kind == migLeave {
			gone = t.members[p.target]
			delete(t.members, p.target)
			t.reorder()
		}
		for _, mv := range p.moves {
			for _, name := range mv.drops {
				if m, ok := t.members[name]; ok {
					drops = append(drops, dropTarget{m, mv.lo, mv.hi})
				}
			}
		}
	})
	if gone != nil {
		gone.hangUp()
	}
	return drops
}

// rollback closes a plan without committing it: dual routing stops, a
// joining member leaves the scatter set and is hung up on, and the ring
// never moved. It returns every move's range on every add still in the
// table, a joining member included: the routes enter published may have
// written any of them, so the driver removes them all; followers ignore
// them.
func (t *routingTable) rollback(p *migrationPlan) (drops []dropTarget) {
	var gone *memberState
	t.swap(func() {
		for _, mv := range p.moves {
			for _, name := range mv.adds {
				if m, ok := t.members[name]; ok {
					drops = append(drops, dropTarget{m, mv.lo, mv.hi})
				}
			}
		}
		t.duals = t.duals[:0]
		if p.joining != nil {
			gone = t.members[p.target]
			delete(t.members, p.target)
			t.reorder()
		}
	})
	if gone != nil {
		gone.hangUp()
	}
	return drops
}
