package roadmap

import (
	"container/heap"
	"fmt"
	"math"

	"mapdr/internal/geo"
)

// Route is an ordered sequence of directed links where each link starts at
// the node the previous one ended at. It supports arc-length addressing,
// which the known-route dead-reckoning baseline (Wolfson et al.) uses.
type Route struct {
	g    *Graph
	dirs []Dir
	cum  []float64 // cumulative length at the start of each link, plus total
}

// NewRoute builds a Route from directed links, validating continuity.
func NewRoute(g *Graph, dirs []Dir) (*Route, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("roadmap: empty route")
	}
	cum := make([]float64, len(dirs)+1)
	for i, d := range dirs {
		l := g.Link(d.Link)
		if i > 0 {
			prev := g.Link(dirs[i-1].Link)
			if prev.EndNode(dirs[i-1].Forward) != l.StartNode(d.Forward) {
				return nil, fmt.Errorf("roadmap: route discontinuous at element %d", i)
			}
		}
		cum[i+1] = cum[i] + l.Length()
	}
	return &Route{g: g, dirs: dirs, cum: cum}, nil
}

// Dirs returns the directed links of the route.
func (r *Route) Dirs() []Dir { return r.dirs }

// Len returns the number of links.
func (r *Route) Len() int { return len(r.dirs) }

// Length returns the total route length.
func (r *Route) Length() float64 { return r.cum[len(r.cum)-1] }

// At returns the i-th directed link.
func (r *Route) At(i int) Dir { return r.dirs[i] }

// PointAt returns the point and travel heading at route offset s
// (clamped to [0, Length()]).
func (r *Route) PointAt(s float64) (geo.Point, float64) {
	if s <= 0 {
		d := r.dirs[0]
		return r.g.Link(d.Link).PointAtDirected(0, d.Forward)
	}
	if s >= r.Length() {
		d := r.dirs[len(r.dirs)-1]
		l := r.g.Link(d.Link)
		return l.PointAtDirected(l.Length(), d.Forward)
	}
	// Binary search for the containing link.
	lo, hi := 0, len(r.dirs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	d := r.dirs[lo]
	return r.g.Link(d.Link).PointAtDirected(s-r.cum[lo], d.Forward)
}

// PointAtHint is PointAt with a memoized starting index: it returns the
// point and travel heading at route offset s plus the index of the link
// containing s, scanning neighbouring links from hint instead of binary
// searching. Successive calls with slowly moving offsets are amortised
// O(1); the result is identical to PointAt for any s and any hint. Used
// by the known-route prediction cursor.
func (r *Route) PointAtHint(s float64, hint int) (geo.Point, float64, int) {
	if s <= 0 {
		d := r.dirs[0]
		p, h := r.g.Link(d.Link).PointAtDirected(0, d.Forward)
		return p, h, 0
	}
	if s >= r.Length() {
		i := len(r.dirs) - 1
		d := r.dirs[i]
		l := r.g.Link(d.Link)
		p, h := l.PointAtDirected(l.Length(), d.Forward)
		return p, h, i
	}
	lo := hint
	if lo < 0 {
		lo = 0
	}
	if lo > len(r.dirs)-1 {
		lo = len(r.dirs) - 1
	}
	for lo+1 < len(r.dirs) && r.cum[lo+1] <= s {
		lo++
	}
	for lo > 0 && r.cum[lo] > s {
		lo--
	}
	d := r.dirs[lo]
	p, h := r.g.Link(d.Link).PointAtDirected(s-r.cum[lo], d.Forward)
	return p, h, lo
}

// Project finds the route offset whose point is nearest to p, scanning all
// links. Used to initialise the known-route protocol from a sensor
// position. Returns the offset and the distance.
func (r *Route) Project(p geo.Point) (float64, float64) {
	bestOffset, bestDist := 0.0, math.Inf(1)
	for i, d := range r.dirs {
		l := r.g.Link(d.Link)
		pr := l.Project(p)
		if pr.Dist < bestDist {
			off := pr.Offset
			if !d.Forward {
				off = l.Length() - off
			}
			bestOffset, bestDist = r.cum[i]+off, pr.Dist
		}
	}
	return bestOffset, bestDist
}

// RecordTurns adds every intersection transition of the route to the turn
// table with the given weight, simulating "user-specific" probability
// learning from repeated trips (paper §2).
func (r *Route) RecordTurns(t *TurnTable, weight float64) {
	for i := 1; i < len(r.dirs); i++ {
		t.Observe(r.dirs[i-1], r.dirs[i], weight)
	}
}

// CostFunc weighs a directed link for routing.
type CostFunc func(g *Graph, d Dir) float64

// LengthCost routes by distance.
func LengthCost(g *Graph, d Dir) float64 { return g.Link(d.Link).Length() }

// ShortestPath computes a minimum-cost route from node a to node b using
// Dijkstra's algorithm. Returns an error when b is unreachable.
func ShortestPath(g *Graph, a, b NodeID, cost CostFunc) (*Route, error) {
	if cost == nil {
		cost = LengthCost
	}
	const unvisited = math.MaxFloat64
	dist := make([]float64, g.NumNodes())
	via := make([]Dir, g.NumNodes())
	for i := range dist {
		dist[i] = unvisited
		via[i] = NoDir
	}
	dist[a] = 0
	pq := &nodeHeap{{node: a, dist: 0}}
	var outs []Dir
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.node == b {
			break
		}
		if cur.dist > dist[cur.node] {
			continue
		}
		outs = g.OutgoingAppend(outs[:0], cur.node, NoDir)
		for _, d := range outs {
			next := g.Link(d.Link).EndNode(d.Forward)
			nd := cur.dist + cost(g, d)
			if nd < dist[next] {
				dist[next] = nd
				via[next] = d
				heap.Push(pq, nodeDist{node: next, dist: nd})
			}
		}
	}
	if dist[b] == unvisited {
		return nil, fmt.Errorf("roadmap: node %d unreachable from %d", b, a)
	}
	// Reconstruct by walking predecessors back from b.
	var rev []Dir
	for at := b; at != a; {
		d := via[at]
		if !d.IsValid() {
			return nil, fmt.Errorf("roadmap: broken predecessor chain at node %d", at)
		}
		rev = append(rev, d)
		at = g.Link(d.Link).StartNode(d.Forward)
	}
	dirs := make([]Dir, len(rev))
	for i, d := range rev {
		dirs[len(rev)-1-i] = d
	}
	return NewRoute(g, dirs)
}

type nodeDist struct {
	node NodeID
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
