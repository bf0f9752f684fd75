// Package cluster scales the location service past one process: a
// consistent-hash ring partitions object ids over N member nodes, a
// coordinator routes ingest batches per partition over the
// internal/wire update transports and scatter-gathers k-NN/range
// queries over the wire query protocol, and membership changes
// rebalance by key-range handoff.
//
// The coordinator's merged answers are bit-identical to a
// single-process sharded store holding the same objects: every node
// reduces its partition to a local top-k with the same bounded-heap
// order the in-process shards use, coordinates travel as f64 on the
// wire, and the coordinator merges with the same (Dist, ID) total
// order — exactly the shard merge, one level up.
//
// The Coordinator is four parts. The routing table (routing.go) owns
// the ring, the member set and the dual routes of a migration in flight
// behind one RWMutex, and moves only by four transitions over one
// migrationPlan: enter, publish, commit, rollback. Replica health
// (replication.go, membership.go) is the per-member breaker, hints,
// read repair and the self-heal loops. The migration engine
// (migration.go) drives a plan's copies under migMu. The fan-in log
// (fanin.go) replicates plans between coordinator fronts under its own
// mutex and moves the table by the same derivation and transitions.
//
// Lock order: migMu, then the fan-in mutex, then the routing lock; the
// fan-in side only ever TryLocks migMu, and no peer or member is called
// under the fan-in mutex. Ingest and queries hold the routing read side
// across their whole fan-out, which makes the write side a grace period
// as well as a lock: commit cannot return while a batch routed by the
// old ring is in flight, so the driver can empty the previous owners
// right after it without a late write landing on a member that no
// longer owns the key.
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"mapdr/internal/wire"
)

// DefaultVnodes is the number of virtual nodes each member projects
// onto the ring. More vnodes smooth the partition sizes (the classic
// consistent-hashing variance argument) at the cost of slightly larger
// handoff movement lists.
const DefaultVnodes = 64

// vnode is one virtual node: a ring position owned by a member.
type vnode struct {
	pos  uint64
	node string
}

// Ring is a consistent-hash partitioner: object ids hash onto a
// uint64 ring (wire.KeyHash, the wire-contract hash all nodes share),
// and each id belongs to the member owning the first virtual node at or
// after its hash. Add and Remove report exactly which key ranges change
// owner, so membership changes hand off only the moved partitions.
//
// Replication reads the ring through Owners: an id's preference list is
// its owner followed by the next distinct physical members walking the
// ring clockwise (vnodes of members already in the list are skipped),
// so R replicas always land on R different nodes when the cluster has
// that many.
//
// Members may carry unequal vnode counts (weighted consistent hashing):
// a member's share of the key space is proportional to its weight, the
// lever BalancedWeights uses to bias placement from observed load.
//
// Ring is not safe for concurrent use; the Coordinator guards it.
type Ring struct {
	vnodes   []vnode
	replicas int            // default vnodes per member
	weights  map[string]int // per-member vnode count overrides
	names    map[string]bool
}

// Movement is one key range (Lo, Hi] (half-open, wrapping; see
// wire.InKeyRange) whose owner changed in a membership update.
type Movement struct {
	Lo, Hi   uint64
	From, To string
}

// NewRing returns a ring with the given members, each projected to
// replicas virtual nodes (<= 0 selects DefaultVnodes).
func NewRing(replicas int, names ...string) (*Ring, error) {
	return NewWeightedRing(replicas, nil, names...)
}

// NewWeightedRing returns a ring whose members project weights[name]
// virtual nodes each (members absent from weights, or with a
// non-positive weight, use the replicas default; replicas <= 0 selects
// DefaultVnodes).
func NewWeightedRing(replicas int, weights map[string]int, names ...string) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultVnodes
	}
	r := &Ring{
		replicas: replicas,
		weights:  make(map[string]int, len(weights)),
		names:    make(map[string]bool, len(names)),
	}
	for name, w := range weights {
		if w > 0 {
			r.weights[name] = w
		}
	}
	for _, name := range names {
		if err := r.insert(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Vnodes returns how many virtual nodes name projects.
func (r *Ring) Vnodes(name string) int {
	if w, ok := r.weights[name]; ok {
		return w
	}
	return r.replicas
}

// vnodePos is the ring position of a member's i-th virtual node.
func vnodePos(name string, i int) uint64 {
	return wire.KeyHash(name + "#" + strconv.Itoa(i))
}

// insert adds a member's vnodes, keeping the ring sorted.
func (r *Ring) insert(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty node name")
	}
	if r.names[name] {
		return fmt.Errorf("cluster: node %q already in ring", name)
	}
	r.names[name] = true
	for i := 0; i < r.Vnodes(name); i++ {
		r.vnodes = append(r.vnodes, vnode{pos: vnodePos(name, i), node: name})
	}
	r.sortVnodes()
	return nil
}

// sortVnodes orders by position, breaking (astronomically unlikely)
// position collisions by name so every coordinator agrees.
func (r *Ring) sortVnodes() {
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].pos != r.vnodes[j].pos {
			return r.vnodes[i].pos < r.vnodes[j].pos
		}
		return r.vnodes[i].node < r.vnodes[j].node
	})
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.names))
	for name := range r.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning id, or "" on an empty ring.
func (r *Ring) Owner(id string) string { return r.ownerAt(wire.KeyHash(id)) }

// ownerAt returns the owner of ring position h: the first vnode at or
// after h, wrapping to the lowest.
func (r *Ring) ownerAt(h uint64) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.vnodes[i].node
}

// Owners returns id's preference list: the R distinct physical members
// reached walking the ring clockwise from id's hash (fewer when the
// ring has fewer members). The first entry is the primary owner.
func (r *Ring) Owners(id string, rf int) []string {
	return r.ownersAppendAt(nil, wire.KeyHash(id), rf)
}

// OwnersAppend is Owners reusing dst's backing array — the per-record
// routing hot path's allocation-free variant.
func (r *Ring) OwnersAppend(dst []string, id string, rf int) []string {
	return r.ownersAppendAt(dst, wire.KeyHash(id), rf)
}

// ownersAppendAt walks the ring clockwise from the first vnode at or
// after h, collecting rf distinct members; vnode collisions (a member
// already in the list) are skipped so replicas land on distinct nodes.
func (r *Ring) ownersAppendAt(dst []string, h uint64, rf int) []string {
	dst = dst[:0]
	if len(r.vnodes) == 0 || rf <= 0 {
		return dst
	}
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= h })
	for n := 0; n < len(r.vnodes) && len(dst) < rf; n++ {
		v := &r.vnodes[(i+n)%len(r.vnodes)]
		dup := false
		for _, have := range dst {
			if have == v.node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, v.node)
		}
	}
	return dst
}

// prevPos returns the position of the vnode preceding index i,
// wrapping.
func (r *Ring) prevPos(i int) uint64 {
	if i == 0 {
		return r.vnodes[len(r.vnodes)-1].pos
	}
	return r.vnodes[i-1].pos
}

// Add inserts a member with the default vnode count and returns the
// key ranges that move to it, each annotated with its previous owner.
// On the first member the list is empty (there is nobody to move keys
// from).
func (r *Ring) Add(name string) ([]Movement, error) { return r.AddWeighted(name, 0) }

// AddWeighted is Add with an explicit vnode count for the new member
// (<= 0 uses the ring default) — how a heavier or lighter node joins
// with a proportionally different share of the key space.
func (r *Ring) AddWeighted(name string, vnodes int) ([]Movement, error) {
	if r.names[name] {
		return nil, fmt.Errorf("cluster: node %q already in ring", name)
	}
	old := r.clone()
	if vnodes > 0 {
		r.weights[name] = vnodes
	}
	if err := r.insert(name); err != nil {
		return nil, err
	}
	if len(old.vnodes) == 0 {
		return nil, nil
	}
	var movs []Movement
	for i, v := range r.vnodes {
		if v.node != name {
			continue
		}
		lo := r.prevPos(i)
		if lo == v.pos {
			// A full-collision range would select the whole ring; with
			// >1 vnodes it is actually empty. Skip it.
			continue
		}
		movs = append(movs, Movement{Lo: lo, Hi: v.pos, From: old.ownerAt(v.pos), To: name})
	}
	return movs, nil
}

// Remove deletes a member and returns the key ranges it gives up, each
// annotated with its new owner. Removing the last member returns no
// movements (there is nobody to move keys to).
func (r *Ring) Remove(name string) ([]Movement, error) {
	if !r.names[name] {
		return nil, fmt.Errorf("cluster: node %q not in ring", name)
	}
	old := r.clone()
	delete(r.names, name)
	delete(r.weights, name)
	kept := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.node != name {
			kept = append(kept, v)
		}
	}
	r.vnodes = kept
	if len(r.vnodes) == 0 {
		return nil, nil
	}
	// Walk the old ring and emit one movement per maximal run of the
	// removed member's vnodes: the run's keys flow to the surviving
	// successor of its last vnode.
	n := len(old.vnodes)
	var movs []Movement
	for i := 0; i < n; i++ {
		if old.vnodes[i].node != name || old.vnodes[(i+n-1)%n].node == name {
			continue // not a run start
		}
		lo := old.prevPos(i)
		j := i
		for old.vnodes[(j+1)%n].node == name {
			j = (j + 1) % n
		}
		hi := old.vnodes[j].pos
		if lo == hi {
			continue
		}
		movs = append(movs, Movement{Lo: lo, Hi: hi, From: name, To: r.ownerAt(hi)})
	}
	return movs, nil
}

// clone copies the ring (for before/after ownership comparison).
func (r *Ring) clone() *Ring {
	c := &Ring{
		vnodes:   append([]vnode(nil), r.vnodes...),
		replicas: r.replicas,
		weights:  make(map[string]int, len(r.weights)),
		names:    make(map[string]bool, len(r.names)),
	}
	for n, w := range r.weights {
		c.weights[n] = w
	}
	for n := range r.names {
		c.names[n] = true
	}
	return c
}

// reweighted returns a new ring with the same members and the given
// vnode-count overrides applied on top of the existing ones — the
// target ring of a Coordinator.Reweight migration.
func (r *Ring) reweighted(weights map[string]int) (*Ring, error) {
	merged := make(map[string]int, len(r.weights)+len(weights))
	for name, w := range r.weights {
		merged[name] = w
	}
	for name, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("cluster: vnode weight %d for %q", w, name)
		}
		if !r.names[name] {
			return nil, fmt.Errorf("cluster: weight for unknown member %q", name)
		}
		merged[name] = w
	}
	return NewWeightedRing(r.replicas, merged, r.Nodes()...)
}
