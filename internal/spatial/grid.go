package spatial

import (
	"math"

	"mapdr/internal/geo"
)

// Grid is a uniform grid index. Each entry is registered in every cell its
// bounding rectangle overlaps. Nearest-neighbour queries expand an outward
// ring of cells until the candidate distance bound is met.
//
// Grids are the classic choice for road maps: link segments are short and
// uniformly spread, so a cell size near the median segment length gives
// O(1) lookups.
type Grid struct {
	cellSize float64
	entries  []Entry
	cells    map[[2]int32][]int32
	bounds   geo.Rect
}

// NewGrid returns a grid index with the given cell size in metres.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("spatial: grid cell size must be positive")
	}
	return &Grid{
		cellSize: cellSize,
		cells:    make(map[[2]int32][]int32),
		bounds:   geo.EmptyRect(),
	}
}

func (g *Grid) cellOf(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.X / g.cellSize)), int32(math.Floor(p.Y / g.cellSize))}
}

// Insert adds an entry. Entries are visible immediately.
func (g *Grid) Insert(e Entry) {
	idx := int32(len(g.entries))
	g.entries = append(g.entries, e)
	b := e.Bounds()
	g.bounds = g.bounds.Union(b)
	lo, hi := g.cellOf(b.Min), g.cellOf(b.Max)
	for cx := lo[0]; cx <= hi[0]; cx++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			key := [2]int32{cx, cy}
			g.cells[key] = append(g.cells[key], idx)
		}
	}
}

// Len returns the number of indexed entries.
func (g *Grid) Len() int { return len(g.entries) }

// NearestScratch is the working memory of nearest queries that one caller
// reuses across them: the hit list and the entry index of each hit. The
// zero value is ready. It serves one goroutine at a time.
type NearestScratch struct {
	hits []Hit
	at   []int32 // at[i] is the entry index of hits[i]
}

// holds reports whether entry idx is among the current hits.
func (s *NearestScratch) holds(idx int32) bool {
	for _, i := range s.at {
		if i == idx {
			return true
		}
	}
	return false
}

// NearestKWith returns up to k entries nearest to p within maxDist,
// ordered by increasing distance. It scans rings of cells outward from p
// and stops once the next ring cannot hold anything closer than the
// current k-th best hit. It works in the caller's scratch, so a warmed-up
// scratch makes the query allocation-free; the result aliases s and is
// valid until s is used again.
//
// An entry registered in several cells is met once per cell, and no
// visited set is kept: meeting it again changes nothing. If it is among
// the hits it is not inserted twice; if it is not, it was rejected or
// evicted by k hits at most as far, which only get nearer, so it is
// rejected again. The answer is the one a single visit per entry gives.
func (g *Grid) NearestKWith(p geo.Point, k int, maxDist float64, s *NearestScratch) []Hit {
	if k <= 0 || len(g.entries) == 0 {
		return nil
	}
	s.hits, s.at = s.hits[:0], s.at[:0]
	center := g.cellOf(p)
	// A ring beyond the farthest corner of the occupied extent cannot hold
	// entries, so cap the scan there even when maxDist is infinite.
	farthest := math.Max(
		math.Max(p.Dist(g.bounds.Min), p.Dist(g.bounds.Max)),
		math.Max(p.Dist(geo.Pt(g.bounds.Min.X, g.bounds.Max.Y)), p.Dist(geo.Pt(g.bounds.Max.X, g.bounds.Min.Y))),
	)
	reach := math.Min(maxDist, farthest)
	maxRing := int32(math.Ceil(reach/g.cellSize)) + 1
	for ring := int32(0); ring <= maxRing; ring++ {
		// Entries in cells of this ring are at least (ring-1)*cellSize away.
		minPossible := float64(ring-1) * g.cellSize
		if minPossible > kthDist(s.hits, k, maxDist) {
			break
		}
		// The cells at Chebyshev distance ring from center, column by
		// column: a full column at either edge, else its two ends.
		for dx := -ring; dx <= ring; dx++ {
			step := 2 * ring
			if dx == -ring || dx == ring {
				step = 1
			}
			for dy := -ring; dy <= ring; dy += step {
				for _, idx := range g.cells[[2]int32{center[0] + dx, center[1] + dy}] {
					e := g.entries[idx]
					if d := e.Seg.DistanceTo(p); d <= maxDist {
						if lo := hitRank(s.hits, d); lo < k && !s.holds(idx) {
							s.hits = insertAt(s.hits, lo, Hit{Entry: e, Dist: d}, k)
							s.at = insertAt(s.at, lo, idx, k)
						}
					}
				}
			}
		}
	}
	return s.hits
}
