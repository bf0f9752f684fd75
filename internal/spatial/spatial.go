// Package spatial provides spatial indexes over line segments: a uniform
// grid and the brute-force scan tests compare it against, behind a common
// Index interface, plus the live point grid the location service
// maintains in place.
//
// The map-based dead-reckoning protocol queries such an index to find
// candidate road links for map matching ("on initialization, potential
// links of the map are found by querying a spatial index for the map
// information with the mobile object's current position", paper §3).
package spatial

import (
	"math"

	"mapdr/internal/geo"
)

// Entry is one indexed segment. ID is owned by the caller; the road map
// encodes (link, segment) pairs into it.
type Entry struct {
	ID  int64
	Seg geo.Segment
}

// Bounds returns the bounding rectangle of the entry's segment.
func (e Entry) Bounds() geo.Rect { return e.Seg.Bounds() }

// Hit is a query result: an entry and its distance to the query point.
type Hit struct {
	Entry Entry
	Dist  float64
}

// Index is the interface shared by all spatial index implementations.
type Index interface {
	// Insert adds an entry. Depending on the implementation, queries may
	// not see the entry until Build has been called.
	Insert(e Entry)
	// Build finalises the index after a batch of inserts.
	Build()
	// Len returns the number of indexed entries.
	Len() int
	// Search calls fn for every entry whose bounds intersect r. fn
	// returning false stops the search.
	Search(r geo.Rect, fn func(Entry) bool)
	// Nearest returns the entry nearest to p within maxDist, if any.
	Nearest(p geo.Point, maxDist float64) (Hit, bool)
	// NearestK returns up to k entries nearest to p within maxDist,
	// ordered by increasing distance.
	NearestK(p geo.Point, k int, maxDist float64) []Hit
}

// insertHit inserts h into hits (sorted ascending by Dist), keeping at most
// k elements. Returns the updated slice.
func insertHit(hits []Hit, h Hit, k int) []Hit {
	lo := 0
	for lo < len(hits) && hits[lo].Dist <= h.Dist {
		lo++
	}
	if lo >= k {
		return hits
	}
	hits = append(hits, Hit{})
	copy(hits[lo+1:], hits[lo:])
	hits[lo] = h
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// kthDist returns the distance of the k-th (last acceptable) hit, or
// maxDist when fewer than k hits have been collected.
func kthDist(hits []Hit, k int, maxDist float64) float64 {
	if len(hits) < k {
		return maxDist
	}
	return hits[len(hits)-1].Dist
}

// Scan is the trivial O(n) reference implementation used to validate the
// real indexes in tests and as a baseline in benchmarks.
type Scan struct {
	entries []Entry
}

// NewScan returns an empty linear-scan "index".
func NewScan() *Scan { return &Scan{} }

// Insert implements Index.
func (s *Scan) Insert(e Entry) { s.entries = append(s.entries, e) }

// Build implements Index (no-op).
func (s *Scan) Build() {}

// Len implements Index.
func (s *Scan) Len() int { return len(s.entries) }

// Search implements Index.
func (s *Scan) Search(r geo.Rect, fn func(Entry) bool) {
	for _, e := range s.entries {
		if r.Intersects(e.Bounds()) {
			if !fn(e) {
				return
			}
		}
	}
}

// Nearest implements Index.
func (s *Scan) Nearest(p geo.Point, maxDist float64) (Hit, bool) {
	best := Hit{Dist: math.Inf(1)}
	found := false
	for _, e := range s.entries {
		if d := e.Seg.DistanceTo(p); d <= maxDist && d < best.Dist {
			best = Hit{Entry: e, Dist: d}
			found = true
		}
	}
	return best, found
}

// NearestK implements Index.
func (s *Scan) NearestK(p geo.Point, k int, maxDist float64) []Hit {
	if k <= 0 {
		return nil
	}
	var hits []Hit
	for _, e := range s.entries {
		if d := e.Seg.DistanceTo(p); d <= maxDist {
			hits = insertHit(hits, Hit{Entry: e, Dist: d}, k)
		}
	}
	return hits
}

var _ Index = (*Scan)(nil)
