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
// behind one RWMutex, and moves only by three transitions over one
// migrationPlan: enter, commit, rollback. Replica health
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
// consistent-hashing variance argument) at the cost of more, smaller
// arcs for a migration to move.
const DefaultVnodes = 64

// vnode is one virtual node: a ring position owned by a member.
type vnode struct {
	pos  uint64
	node string
}

// Ring is a consistent-hash partitioner: object ids hash onto a
// uint64 ring (wire.KeyHash, the wire-contract hash all nodes share),
// and each id belongs to the member owning the first virtual node at or
// after its hash.
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
// A Ring is an immutable value, a pure function of its member names and
// vnode counts: a membership change builds the next ring with
// NewWeightedRing and diffs the two (diffPreferenceLists). It is safe
// for concurrent use.
type Ring struct {
	points  []vnode        // every member's vnodes, sorted by position
	vnodes  int            // default vnodes per member
	weights map[string]int // per-member vnode count overrides
	names   map[string]bool
}

// NewRing returns a ring with the given members, each projected to
// vnodes virtual nodes (<= 0 selects DefaultVnodes).
func NewRing(vnodes int, names ...string) (*Ring, error) {
	return NewWeightedRing(vnodes, nil, names...)
}

// NewWeightedRing returns a ring whose members project weights[name]
// virtual nodes each (members absent from weights, or with a
// non-positive weight, use the vnodes default; vnodes <= 0 selects
// DefaultVnodes).
func NewWeightedRing(vnodes int, weights map[string]int, names ...string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		vnodes:  vnodes,
		weights: make(map[string]int, len(weights)),
		names:   make(map[string]bool, len(names)),
	}
	for name, w := range weights {
		if w > 0 {
			r.weights[name] = w
		}
	}
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if r.names[name] {
			return nil, fmt.Errorf("cluster: node %q already in ring", name)
		}
		r.names[name] = true
		for i := 0; i < r.Vnodes(name); i++ {
			r.points = append(r.points, vnode{pos: vnodePos(name, i), node: name})
		}
	}
	// Position collisions (astronomically unlikely) break by name, so
	// every coordinator builds the same order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Vnodes returns how many virtual nodes name projects.
func (r *Ring) Vnodes(name string) int {
	if w, ok := r.weights[name]; ok {
		return w
	}
	return r.vnodes
}

// vnodePos is the ring position of a member's i-th virtual node.
func vnodePos(name string, i int) uint64 {
	return wire.KeyHash(name + "#" + strconv.Itoa(i))
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
	if len(r.points) == 0 || rf <= 0 {
		return dst
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	for n := 0; n < len(r.points) && len(dst) < rf; n++ {
		v := &r.points[(i+n)%len(r.points)]
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
