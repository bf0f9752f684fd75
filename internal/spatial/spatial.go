// Package spatial provides spatial indexes: a uniform grid over line
// segments, which the road map queries for nearest links, and the live
// point grid the location service maintains in place.
//
// The map-based dead-reckoning protocol queries such an index to find
// candidate road links for map matching ("on initialization, potential
// links of the map are found by querying a spatial index for the map
// information with the mobile object's current position", paper §3).
package spatial

import "mapdr/internal/geo"

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

// hitRank returns the position a hit at distance d takes in hits (sorted
// ascending by Dist): after every hit at most as far.
func hitRank(hits []Hit, d float64) int {
	lo := 0
	for lo < len(hits) && hits[lo].Dist <= d {
		lo++
	}
	return lo
}

// insertAt inserts v at position i of s, keeping at most k elements.
func insertAt[T any](s []T, i int, v T, k int) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	if len(s) > k {
		s = s[:k]
	}
	return s
}

// kthDist returns the distance of the k-th (last acceptable) hit, or
// maxDist when fewer than k hits have been collected.
func kthDist(hits []Hit, k int, maxDist float64) float64 {
	if len(hits) < k {
		return maxDist
	}
	return hits[len(hits)-1].Dist
}
