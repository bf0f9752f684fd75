// Freshest-Seq merge: the replication half of the query path. A
// replicated coordinator queries every owner of a partition, so the
// same object can answer from R replicas — usually in sync, but stale
// on a replica that missed updates during a failure. These helpers
// collapse per-node answers to one hit per object (highest Seq wins)
// and report which replicas answered with an out-of-date copy, so the
// coordinator can read-repair them.

package locserv

import (
	"cmp"
	"slices"
	"sync"
)

// Divergence records one object whose replicas answered a query with
// different sequence numbers: FreshPart is the index (into the merged
// parts) of the freshest answer, StaleParts the indices that returned
// a staler copy. The coordinator maps part indices back to members and
// pushes the winning record at the stale ones. FreshSeq and MinStaleSeq
// carry the winning and the worst losing sequence number, so telemetry
// can histogram how far behind a lagging replica answered
// (FreshSeq − MinStaleSeq updates).
type Divergence struct {
	ID          ObjectID
	FreshPart   int
	StaleParts  []int
	FreshSeq    uint32
	MinStaleSeq uint32
}

// tieRef remembers one part that answered an object with the same Seq
// as the current best copy: if a still-fresher copy shows up later,
// every tied part turns out stale and needs repair. Each object's ties
// form a linked chain through prev (newest first, headed by the
// lastTie map), so a supersede walks exactly its own object's ties —
// never the whole list.
type tieRef struct {
	part int
	prev int // index of the same object's previous tie; -1 ends the chain
}

// mergeScratch is the reusable state of one MergeFreshest call. On the
// healthy replicated path every object answers from R in-sync replicas,
// so the maps and the tie list are exercised on every query — pooling
// them keeps the steady-state merge down to the one result allocation.
type mergeScratch struct {
	at      map[ObjectID]int // id -> index in fresh
	from    map[ObjectID]int // id -> part of the current best copy
	lastTie map[ObjectID]int // id -> index in ties of its newest tie
	ties    []tieRef
}

var mergePool = sync.Pool{
	New: func() any {
		return &mergeScratch{
			at:      make(map[ObjectID]int),
			from:    make(map[ObjectID]int),
			lastTie: make(map[ObjectID]int),
		}
	},
}

// MergeFreshest flattens per-node query answers into one hit per
// object, keeping the highest-Seq copy (ties: the first part in order,
// so the merge is deterministic), and reports every replica that
// returned a staler copy. The merged hits keep their first-encounter
// order; callers re-sort by their query family's total order ((Dist,
// ID) for nearest, ID for range answers).
//
// With replication factor 1 the parts are disjoint and MergeFreshest
// degenerates to a flatten — bit-identical to the unreplicated merge.
func MergeFreshest(parts [][]ObjectPos) (fresh []ObjectPos, stale []Divergence) {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total == 0 {
		// nil, not empty: merged answers must compare equal to what a
		// single store returns for an empty result.
		return nil, nil
	}
	scr := mergePool.Get().(*mergeScratch)
	defer func() {
		clear(scr.at)
		clear(scr.from)
		clear(scr.lastTie)
		scr.ties = scr.ties[:0]
		mergePool.Put(scr)
	}()
	at, from, lastTie, ties := scr.at, scr.from, scr.lastTie, scr.ties[:0]
	fresh = make([]ObjectPos, 0, total)
	// div materialises only when replicas actually disagree — never on
	// the healthy path, where every duplicate is an in-sync tie.
	var div map[ObjectID]*Divergence
	divFor := func(id ObjectID) *Divergence {
		if div == nil {
			div = make(map[ObjectID]*Divergence)
		}
		d := div[id]
		if d == nil {
			d = &Divergence{ID: id, FreshPart: from[id]}
			div[id] = d
		}
		return d
	}
	for pi, part := range parts {
		for _, hit := range part {
			i, seen := at[hit.ID]
			if !seen {
				at[hit.ID] = len(fresh)
				from[hit.ID] = pi
				fresh = append(fresh, hit)
				continue
			}
			// A second replica answered for the same object: keep the
			// fresher copy and remember the staler replicas for repair.
			switch {
			case hit.Seq > fresh[i].Seq:
				d := divFor(hit.ID)
				if len(d.StaleParts) == 0 || fresh[i].Seq < d.MinStaleSeq {
					d.MinStaleSeq = fresh[i].Seq
				}
				d.StaleParts = append(d.StaleParts, d.FreshPart)
				if head, ok := lastTie[hit.ID]; ok {
					// Walk this object's tie chain (newest first), then flip
					// the appended run back to part order.
					mark := len(d.StaleParts)
					for ti := head; ti >= 0; ti = ties[ti].prev {
						d.StaleParts = append(d.StaleParts, ties[ti].part)
					}
					for lo, hi := mark, len(d.StaleParts)-1; lo < hi; lo, hi = lo+1, hi-1 {
						d.StaleParts[lo], d.StaleParts[hi] = d.StaleParts[hi], d.StaleParts[lo]
					}
					delete(lastTie, hit.ID)
				}
				d.FreshPart = pi
				from[hit.ID] = pi
				fresh[i] = hit
			case hit.Seq < fresh[i].Seq:
				d := divFor(hit.ID)
				if len(d.StaleParts) == 0 || hit.Seq < d.MinStaleSeq {
					d.MinStaleSeq = hit.Seq
				}
				d.StaleParts = append(d.StaleParts, pi)
			default:
				// Same Seq as the current best: in sync so far, but stale
				// together with it if a fresher copy follows.
				prev := -1
				if ti, ok := lastTie[hit.ID]; ok {
					prev = ti
				}
				lastTie[hit.ID] = len(ties)
				ties = append(ties, tieRef{part: pi, prev: prev})
			}
		}
	}
	scr.ties = ties
	for id, d := range div {
		if len(d.StaleParts) > 0 {
			d.FreshSeq = fresh[at[id]].Seq
			stale = append(stale, *d)
		}
	}
	slices.SortFunc(stale, func(a, b Divergence) int { return cmp.Compare(a.ID, b.ID) })
	return fresh, stale
}

// MergeNearest merges per-node k-nearest answers: freshest copy per
// object, then the shard merge's (Dist, ID) total order, truncated to
// k. stale reports replicas needing read repair.
func MergeNearest(parts [][]ObjectPos, k int) (hits []ObjectPos, stale []Divergence) {
	hits, stale = MergeFreshest(parts)
	return sortNearest(hits, k), stale
}

// MergeWithin merges per-node range answers: freshest copy per object,
// sorted by id — the same order a single store returns.
func MergeWithin(parts [][]ObjectPos) (hits []ObjectPos, stale []Divergence) {
	hits, stale = MergeFreshest(parts)
	return sortWithin(hits), stale
}
