// Package histmap learns a road map from traces of past movements — the
// paper's "history-based dead-reckoning" variant (§2): "if no map is
// available, it can be generated from traces of the user's past
// movements... if the movements are observed over a long time, the result
// is a map, which can be used as in the map-based protocols."
//
// The learner rasterises traces onto a grid, keeps cells visited at least
// MinVisits times (filtering one-off detours and sensor outliers), links
// neighbouring visited cells, and collapses chains of degree-2 cells into
// road links with shape points. Per-cell average speeds become link speed
// estimates, and turn counts at junctions populate a TurnTable — so the
// learned map drives both the plain map-based and the +probabilities
// protocol variants.
package histmap

import (
	"fmt"
	"math"
	"sort"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
)

// Config parameterises the learner.
type Config struct {
	// CellSize is the rasterisation resolution in metres. It bounds the
	// geometric fidelity of the learned map; choose ~2-5x the sensor noise.
	CellSize float64
	// MinVisits is the minimum number of traversals for a cell to become
	// part of the map.
	MinVisits int
}

// DefaultConfig suits urban learning with a few-metre GPS.
func DefaultConfig() Config { return Config{CellSize: 25, MinVisits: 2} }

type cellKey [2]int32

type cellInfo struct {
	sumX, sumY float64 // centroid accumulator
	points     int
	visits     int // distinct trace traversals
	sumSpeed   float64
	speedN     int
}

type edgeKey struct{ a, b cellKey }

func mkEdge(a, b cellKey) edgeKey {
	if b[0] < a[0] || (b[0] == a[0] && b[1] < a[1]) {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// Learner accumulates traces. Not safe for concurrent use.
type Learner struct {
	cfg   Config
	cells map[cellKey]*cellInfo
	edges map[edgeKey]int
}

// New returns an empty learner.
func New(cfg Config) *Learner {
	if cfg.CellSize <= 0 {
		panic("histmap: CellSize must be positive")
	}
	if cfg.MinVisits < 1 {
		cfg.MinVisits = 1
	}
	return &Learner{cfg: cfg, cells: map[cellKey]*cellInfo{}, edges: map[edgeKey]int{}}
}

func (l *Learner) keyOf(p geo.Point) cellKey {
	return cellKey{
		int32(math.Floor(p.X / l.cfg.CellSize)),
		int32(math.Floor(p.Y / l.cfg.CellSize)),
	}
}

// AddTrace accumulates one trace. Consecutive samples are densified so no
// cells are skipped at speed.
func (l *Learner) AddTrace(tr *trace.Trace) {
	if tr.Len() == 0 {
		return
	}
	step := l.cfg.CellSize / 2
	seen := map[cellKey]bool{} // one visit per traversal per cell
	var prevKey cellKey
	havePrev := false

	visit := func(p geo.Point, speed float64, hasSpeed bool) {
		key := l.keyOf(p)
		ci := l.cells[key]
		if ci == nil {
			ci = &cellInfo{}
			l.cells[key] = ci
		}
		ci.sumX += p.X
		ci.sumY += p.Y
		ci.points++
		if hasSpeed {
			ci.sumSpeed += speed
			ci.speedN++
		}
		if !seen[key] {
			seen[key] = true
			ci.visits++
		}
		if havePrev && key != prevKey {
			l.edges[mkEdge(prevKey, key)]++
		}
		prevKey, havePrev = key, true
	}

	for i, s := range tr.Samples {
		if i > 0 {
			a, b := tr.Samples[i-1], s
			d := a.Pos.Dist(b.Pos)
			dt := b.T - a.T
			speed := 0.0
			hasSpeed := false
			if dt > 0 {
				speed, hasSpeed = d/dt, true
			}
			if d > step {
				n := int(math.Ceil(d / step))
				for k := 1; k < n; k++ {
					visit(a.Pos.Lerp(b.Pos, float64(k)/float64(n)), speed, hasSpeed)
				}
			}
			visit(b.Pos, speed, hasSpeed)
		} else {
			visit(s.Pos, 0, false)
		}
	}
}

// Result is a learned map plus the visit filter's statistics.
type Result struct {
	Graph *roadmap.Graph
	// CoveredCells and DroppedCells describe the visit filter's effect.
	CoveredCells, DroppedCells int
}

// keyLess orders cell keys deterministically.
func keyLess(a, b cellKey) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Build collapses the accumulated observations into a road network.
// Returns an error when nothing (or only noise) was observed.
func (l *Learner) Build() (*Result, error) {
	// 1. Keep sufficiently visited cells.
	kept := map[cellKey]bool{}
	var rawKeys []cellKey
	for k, ci := range l.cells {
		if ci.visits >= l.cfg.MinVisits {
			kept[k] = true
			rawKeys = append(rawKeys, k)
		}
	}
	if len(kept) < 2 {
		return nil, fmt.Errorf("histmap: only %d cells pass the visit filter", len(kept))
	}
	sort.Slice(rawKeys, func(i, j int) bool { return keyLess(rawKeys[i], rawKeys[j]) })

	// 2. Mode-seeking cluster merge: a path running near a cell boundary
	// lights up two parallel rows of cells; each cell is merged toward its
	// densest 8-neighbour, so the weaker row collapses into the stronger
	// and the learned road stays one cell wide.
	parent := map[cellKey]cellKey{}
	for _, k := range rawKeys {
		parent[k] = k
		best := k
		bestPts := l.cells[k].points
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				if dx == 0 && dy == 0 {
					continue
				}
				n := cellKey{k[0] + dx, k[1] + dy}
				if !kept[n] {
					continue
				}
				pts := l.cells[n].points
				if pts > bestPts || (pts == bestPts && keyLess(n, best) && n != k) {
					best, bestPts = n, pts
				}
			}
		}
		if best != k && l.cells[best].points >= l.cells[k].points {
			parent[k] = best
		}
	}
	find := func(k cellKey) cellKey {
		for parent[k] != k {
			parent[k] = parent[parent[k]]
			k = parent[k]
		}
		return k
	}

	// Cluster accumulators: weighted centroids and merged speed stats.
	type clusterInfo struct {
		sumX, sumY float64
		points     int
		sumSpeed   float64
		speedN     int
	}
	clusters := map[cellKey]*clusterInfo{}
	for _, k := range rawKeys {
		r := find(k)
		ci := clusters[r]
		if ci == nil {
			ci = &clusterInfo{}
			clusters[r] = ci
		}
		cell := l.cells[k]
		ci.sumX += cell.sumX
		ci.sumY += cell.sumY
		ci.points += cell.points
		ci.sumSpeed += cell.sumSpeed
		ci.speedN += cell.speedN
	}
	var keys []cellKey
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	// 3. Adjacency between clusters from observed cell transitions. Any
	// observed transition between kept cells counts: the visit filter on
	// cells already removed noise, and requiring MinVisits per individual
	// transition would fragment roads whose traversals straddle a cell
	// boundary differently on every trip.
	adjSet := map[cellKey]map[cellKey]bool{}
	for e := range l.edges {
		if !kept[e.a] || !kept[e.b] {
			continue
		}
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			continue
		}
		if adjSet[ra] == nil {
			adjSet[ra] = map[cellKey]bool{}
		}
		if adjSet[rb] == nil {
			adjSet[rb] = map[cellKey]bool{}
		}
		adjSet[ra][rb] = true
		adjSet[rb][ra] = true
	}
	adj := map[cellKey][]cellKey{}
	for k, set := range adjSet {
		for n := range set {
			adj[k] = append(adj[k], n)
		}
		sort.Slice(adj[k], func(i, j int) bool { return keyLess(adj[k][i], adj[k][j]) })
	}

	centroid := func(k cellKey) geo.Point {
		ci := clusters[k]
		return geo.Pt(ci.sumX/float64(ci.points), ci.sumY/float64(ci.points))
	}

	// 3. Junction cells (degree != 2) become intersections; chains of
	// degree-2 cells become links with shape points.
	b := roadmap.NewBuilder()
	nodeOf := map[cellKey]roadmap.NodeID{}
	isJunction := func(k cellKey) bool { return len(adj[k]) != 2 }
	for _, k := range keys {
		if len(adj[k]) > 0 && isJunction(k) {
			nodeOf[k] = b.AddNode(centroid(k))
		}
	}
	// Isolated cycles (no junction at all): promote the smallest cell of
	// each unvisited component to a node.
	visited := map[cellKey]bool{}
	for _, k := range keys {
		if len(adj[k]) == 0 || isJunction(k) || visited[k] {
			continue
		}
		// Walk the component; if it contains no junction, promote k.
		component := []cellKey{k}
		visited[k] = true
		junction := false
		for i := 0; i < len(component); i++ {
			for _, n := range adj[component[i]] {
				if isJunction(n) {
					junction = true
				}
				if !visited[n] && !isJunction(n) {
					visited[n] = true
					component = append(component, n)
				}
			}
		}
		if !junction {
			nodeOf[k] = b.AddNode(centroid(k))
		}
	}

	// 4. Trace chains from every node.
	type chainEdge struct{ a, b cellKey }
	done := map[chainEdge]bool{}
	var nodeKeys []cellKey
	for k := range nodeOf {
		nodeKeys = append(nodeKeys, k)
	}
	sort.Slice(nodeKeys, func(i, j int) bool {
		if nodeKeys[i][0] != nodeKeys[j][0] {
			return nodeKeys[i][0] < nodeKeys[j][0]
		}
		return nodeKeys[i][1] < nodeKeys[j][1]
	})
	for _, start := range nodeKeys {
		for _, first := range adj[start] {
			if done[chainEdge{start, first}] {
				continue
			}
			// Walk until the next node cell.
			shape := geo.Polyline{centroid(start)}
			var speedSum float64
			var speedN int
			prev, cur := start, first
			addSpeed := func(k cellKey) {
				ci := clusters[k]
				if ci.speedN > 0 {
					speedSum += ci.sumSpeed / float64(ci.speedN)
					speedN++
				}
			}
			for {
				done[chainEdge{prev, cur}] = true
				done[chainEdge{cur, prev}] = true
				if _, isNode := nodeOf[cur]; isNode {
					shape = append(shape, centroid(cur))
					break
				}
				shape = append(shape, centroid(cur))
				addSpeed(cur)
				// Degree-2 cell: continue to the other neighbour.
				ns := adj[cur]
				next := ns[0]
				if next == prev {
					next = ns[1]
				}
				prev, cur = cur, next
			}
			endNode := nodeOf[cur]
			speed := 0.0
			if speedN > 0 {
				speed = speedSum / float64(speedN)
			}
			// Smooth the blocky cell centroids a little.
			interior := shape[1 : len(shape)-1]
			if len(interior) > 2 {
				interior = geo.Polyline(interior).Simplify(l.cfg.CellSize / 3)
			}
			b.AddLink(roadmap.LinkSpec{
				From:       nodeOf[start],
				To:         endNode,
				Shape:      interior,
				Class:      roadmap.ClassResidential,
				SpeedLimit: speed,
			})
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("histmap: building learned graph: %w", err)
	}
	return &Result{
		Graph:        g,
		CoveredCells: len(kept),
		DroppedCells: len(l.cells) - len(kept),
	}, nil
}
