package roadmap

import (
	"fmt"
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/spatial"
)

// endpointTolerance is the maximum allowed distance between a link's shape
// endpoint and its node location.
const endpointTolerance = 0.5

// Builder assembles a Graph. Nodes and links receive consecutive ids in
// insertion order.
type Builder struct {
	nodes []Node
	links []Link
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode adds an intersection and returns its id.
func (b *Builder) AddNode(pt geo.Point) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Pt: pt})
	return id
}

// AddSignalNode adds an intersection with a traffic light.
func (b *Builder) AddSignalNode(pt geo.Point) NodeID {
	id := b.AddNode(pt)
	b.nodes[id].Signal = true
	return id
}

// LinkSpec describes a link to add.
type LinkSpec struct {
	From, To   NodeID
	Shape      geo.Polyline // optional interior shape points only, or full geometry
	Class      RoadClass
	SpeedLimit float64
	OneWay     bool
	Name       string
}

// AddLink adds a link. If spec.Shape is nil a straight link is created.
// If the shape does not start/end at the node locations, the node
// locations are prepended/appended automatically.
func (b *Builder) AddLink(spec LinkSpec) LinkID {
	if b.err != nil {
		return NoLink
	}
	if int(spec.From) >= len(b.nodes) || int(spec.To) >= len(b.nodes) || spec.From < 0 || spec.To < 0 {
		b.err = fmt.Errorf("roadmap: link references unknown node %d->%d", spec.From, spec.To)
		return NoLink
	}
	fromPt := b.nodes[spec.From].Pt
	toPt := b.nodes[spec.To].Pt
	shape := make(geo.Polyline, 0, len(spec.Shape)+2)
	if len(spec.Shape) == 0 || spec.Shape[0].Dist(fromPt) > endpointTolerance {
		shape = append(shape, fromPt)
	}
	shape = append(shape, spec.Shape...)
	if len(shape) == 0 || shape[len(shape)-1].Dist(toPt) > endpointTolerance {
		shape = append(shape, toPt)
	}
	if len(shape) < 2 {
		shape = geo.Polyline{fromPt, toPt}
	}
	id := LinkID(len(b.links))
	l := Link{
		ID:         id,
		From:       spec.From,
		To:         spec.To,
		Shape:      shape,
		Class:      spec.Class,
		SpeedLimit: spec.SpeedLimit,
		OneWay:     spec.OneWay,
		Name:       spec.Name,
	}
	l.geom = shape.Geometry()
	for _, sg := range l.geom {
		l.length += sg.Len
	}
	b.links = append(b.links, l)
	return id
}

// Build validates the network, constructs adjacency and the spatial index,
// and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	g := &Graph{
		nodes: append([]Node(nil), b.nodes...),
		links: append([]Link(nil), b.links...),
	}
	// Adjacency: a link is usable out of From (forward) and, unless
	// one-way, out of To (backward).
	for i := range g.links {
		l := &g.links[i]
		g.nodes[l.From].out = append(g.nodes[l.From].out, Dir{Link: l.ID, Forward: true})
		if !l.OneWay {
			g.nodes[l.To].out = append(g.nodes[l.To].out, Dir{Link: l.ID, Forward: false})
		}
	}
	g.index = b.buildIndex(g)
	return g, nil
}

// buildIndex bulk-loads every link segment into a uniform grid whose
// cell size follows the network's segment lengths.
func (b *Builder) buildIndex(g *Graph) *spatial.Grid {
	cell := b.medianSegmentLength() * 4
	if cell < 50 {
		cell = 50
	}
	idx := spatial.NewGrid(cell)
	for i := range g.links {
		l := &g.links[i]
		for s := 0; s < l.Shape.NumSegments(); s++ {
			idx.Insert(spatial.Entry{ID: encodeSegID(l.ID, s), Seg: l.Shape.Segment(s)})
		}
	}
	return idx
}

func (b *Builder) medianSegmentLength() float64 {
	var lengths []float64
	for i := range b.links {
		for _, sg := range b.links[i].geom {
			lengths = append(lengths, sg.Len)
		}
	}
	if len(lengths) == 0 {
		return 100
	}
	// Median via partial selection is overkill; a mean is fine for a cell
	// size heuristic, but stay robust to a few very long segments by using
	// the middle of a coarse histogram-free nth element approach.
	sum := 0.0
	for _, l := range lengths {
		sum += l
	}
	return sum / float64(len(lengths))
}

func (b *Builder) validate() error {
	if len(b.nodes) == 0 {
		return fmt.Errorf("roadmap: no nodes")
	}
	for i := range b.nodes {
		if !b.nodes[i].Pt.IsFinite() {
			return fmt.Errorf("roadmap: node %d has non-finite location", i)
		}
	}
	for i := range b.links {
		l := &b.links[i]
		if len(l.Shape) < 2 {
			return fmt.Errorf("roadmap: link %d has %d shape points", i, len(l.Shape))
		}
		for _, p := range l.Shape {
			if !p.IsFinite() {
				return fmt.Errorf("roadmap: link %d has non-finite shape point", i)
			}
		}
		if l.length <= 0 {
			return fmt.Errorf("roadmap: link %d has zero length", i)
		}
		if math.IsInf(l.length, 1) {
			// Finite shape points can still be too far apart for a
			// float64 length; every walk along such a link would pin.
			return fmt.Errorf("roadmap: link %d length is not finite", i)
		}
		if d := l.Shape[0].Dist(b.nodes[l.From].Pt); d > endpointTolerance {
			return fmt.Errorf("roadmap: link %d start %.1fm from node %d", i, d, l.From)
		}
		if d := l.Shape[len(l.Shape)-1].Dist(b.nodes[l.To].Pt); d > endpointTolerance {
			return fmt.Errorf("roadmap: link %d end %.1fm from node %d", i, d, l.To)
		}
	}
	return nil
}

// Connectivity returns the number of weakly connected components,
// treating links as undirected edges. A usable road network has 1.
func (g *Graph) Connectivity() int {
	parent := make([]int32, len(g.nodes))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := range g.links {
		union(int32(g.links[i].From), int32(g.links[i].To))
	}
	roots := make(map[int32]struct{})
	for i := range parent {
		roots[find(int32(i))] = struct{}{}
	}
	return len(roots)
}

// Stats summarises a network for documentation and debugging.
type Stats struct {
	Nodes, Links   int
	Signals        int
	TotalLengthKm  float64
	MeanLinkLength float64
	ShapePoints    int
	Components     int
}

// ComputeStats returns summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: len(g.nodes), Links: len(g.links), Components: g.Connectivity()}
	var total float64
	for i := range g.links {
		total += g.links[i].length
		s.ShapePoints += len(g.links[i].Shape) - 2
	}
	for i := range g.nodes {
		if g.nodes[i].Signal {
			s.Signals++
		}
	}
	s.TotalLengthKm = total / 1000
	if len(g.links) > 0 {
		s.MeanLinkLength = total / float64(len(g.links))
	}
	if math.IsNaN(s.MeanLinkLength) {
		s.MeanLinkLength = 0
	}
	return s
}
