// Package roadmap models the road network used by the map-based
// dead-reckoning protocol: intersections (nodes) with unique identifiers
// and exact locations, and links between two intersections whose geometry
// is refined by intermediate shape points (paper §3, Fig. 4).
//
// The package also provides the spatial index over link segments used for
// map matching, turn-probability annotations (for the "map-based with
// probability information" protocol variant), routing for the known-route
// baseline, and serialisation.
//
// Link geometry never changes once built, so the Builder computes it
// once: every link keeps a table of its shape segments' lengths, headings
// and reverse headings (geo.SegGeom). The shared prediction function
// walks links on every sensor sample and every position query, and reads
// the table instead of calling math.Hypot per vertex and math.Atan2 per
// call; it performs the same arithmetic in the same order, so every point
// and heading is the float64 the polyline computation gives.
package roadmap

import (
	"fmt"

	"mapdr/internal/geo"
	"mapdr/internal/spatial"
)

// NodeID identifies an intersection.
type NodeID int32

// LinkID identifies a link. NoLink marks "no link" (e.g. the linear
// fall-back state of the protocol).
type LinkID int32

// NoLink is the sentinel for the absence of a link.
const NoLink LinkID = -1

// RoadClass categorises links; it determines default speeds in the
// generators and lets predictors prefer main roads.
type RoadClass uint8

// Road classes from fastest to slowest.
const (
	ClassMotorway RoadClass = iota
	ClassTrunk
	ClassSecondary
	ClassResidential
	ClassFootpath
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case ClassMotorway:
		return "motorway"
	case ClassTrunk:
		return "trunk"
	case ClassSecondary:
		return "secondary"
	case ClassResidential:
		return "residential"
	case ClassFootpath:
		return "footpath"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// DefaultSpeed returns a typical free-flow speed for the class in m/s.
func (c RoadClass) DefaultSpeed() float64 {
	switch c {
	case ClassMotorway:
		return 130 / 3.6
	case ClassTrunk:
		return 100 / 3.6
	case ClassSecondary:
		return 70 / 3.6
	case ClassResidential:
		return 50 / 3.6
	case ClassFootpath:
		return 5 / 3.6
	default:
		return 50 / 3.6
	}
}

// Node is an intersection: a unique identifier and an exact location.
type Node struct {
	ID     NodeID
	Pt     geo.Point
	Signal bool // traffic light present (used by the movement simulator)

	out []Dir // links usable when leaving this node
}

// Link connects two intersections. Shape holds the full geometry: the
// first vertex is the From node location, the last is the To node
// location, and interior vertices are shape points.
// The walks, headings and projections below read the segment geometry
// table the Builder computed once (see the package comment).
type Link struct {
	ID         LinkID
	From, To   NodeID
	Shape      geo.Polyline
	Class      RoadClass
	SpeedLimit float64 // m/s; 0 means class default
	OneWay     bool    // travel allowed only From->To
	Name       string

	geom   []geo.SegGeom // per shape segment, from Shape.Geometry
	length float64       // running sum of geom lengths
}

// Length returns the arc length of the link.
func (l *Link) Length() float64 { return l.length }

// Speed returns the effective speed limit in m/s.
func (l *Link) Speed() float64 {
	if l.SpeedLimit > 0 {
		return l.SpeedLimit
	}
	return l.Class.DefaultSpeed()
}

// PointAt returns the point and heading at arc length offset from the From
// node, independent of travel direction. offset is clamped.
func (l *Link) PointAt(offset float64) (geo.Point, float64) {
	p, seg := l.Shape.Walk(l.geom, offset)
	return p, l.geom[seg].Heading
}

// DirectedOffset converts an offset measured along the travel direction to
// the canonical From->To offset.
func (l *Link) DirectedOffset(offset float64, forward bool) float64 {
	if forward {
		return offset
	}
	return l.length - offset
}

// PointAtDirected returns the point and travel heading after travelling
// offset metres along the link in the given direction.
func (l *Link) PointAtDirected(offset float64, forward bool) (geo.Point, float64) {
	p, seg := l.Shape.Walk(l.geom, l.DirectedOffset(offset, forward))
	if !forward {
		return p, l.geom[seg].Back
	}
	return p, l.geom[seg].Heading
}

// Project projects p onto the link geometry, returning the canonical
// From->To offset, the projected point and the distance.
func (l *Link) Project(p geo.Point) geo.PolylineProjection {
	return l.Shape.ProjectWith(l.geom, p)
}

// EntryHeading returns the travel heading when entering the link in the
// given direction.
func (l *Link) EntryHeading(forward bool) float64 {
	if forward {
		return l.geom[0].Heading
	}
	return l.geom[len(l.geom)-1].Back
}

// ExitHeading returns the travel heading when leaving the link in the
// given direction.
func (l *Link) ExitHeading(forward bool) float64 {
	if forward {
		return l.geom[len(l.geom)-1].Heading
	}
	return l.geom[0].Back
}

// EndNode returns the node reached when traversing the link in the given
// direction.
func (l *Link) EndNode(forward bool) NodeID {
	if forward {
		return l.To
	}
	return l.From
}

// StartNode returns the node at which traversal in the given direction
// begins.
func (l *Link) StartNode(forward bool) NodeID {
	if forward {
		return l.From
	}
	return l.To
}

// Dir is a directed reference to a link: the link plus the direction of
// travel (Forward means From->To).
type Dir struct {
	Link    LinkID
	Forward bool
}

// NoDir is the sentinel directed link.
var NoDir = Dir{Link: NoLink}

// IsValid reports whether d references a link.
func (d Dir) IsValid() bool { return d.Link != NoLink }

// Graph is an immutable road network produced by a Builder.
type Graph struct {
	nodes []Node
	links []Link
	index *spatial.Grid
}

// NumNodes returns the number of intersections.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) *Link { return &g.links[id] }

// Links returns all links (read-only use).
func (g *Graph) Links() []Link { return g.links }

// Bounds returns the bounding rectangle of the whole network.
func (g *Graph) Bounds() geo.Rect {
	b := geo.EmptyRect()
	for i := range g.links {
		b = b.Union(g.links[i].Shape.Bounds())
	}
	return b
}

// TotalLength returns the summed length of all links.
func (g *Graph) TotalLength() float64 {
	var total float64
	for i := range g.links {
		total += g.links[i].length
	}
	return total
}

// OutgoingAppend appends the directed links that can be used to leave
// node id to dst and returns the extended slice. Traversal that would
// re-enter via the excluded directed link's reverse (an immediate U-turn
// on the same link) is filtered out when exclude is valid. The caller
// owns dst (typically a scratch buffer re-sliced to length 0) and reuses
// it across intersections, so a steady-state walk allocates nothing.
func (g *Graph) OutgoingAppend(dst []Dir, id NodeID, exclude Dir) []Dir {
	for _, d := range g.nodes[id].out {
		if exclude.IsValid() && d.Link == exclude.Link {
			continue
		}
		dst = append(dst, d)
	}
	return dst
}

// encodeSegID packs a (link, segment) pair into a spatial entry ID.
func encodeSegID(link LinkID, seg int) int64 { return int64(link)<<20 | int64(seg) }

// decodeSegID unpacks a spatial entry ID.
func decodeSegID(id int64) (LinkID, int) { return LinkID(id >> 20), int(id & (1<<20 - 1)) }

// LinkMatch is a candidate link for a position: the link and the
// projection of the query point onto its geometry.
type LinkMatch struct {
	Link LinkID
	Proj geo.PolylineProjection
}

// NearestLink returns the link nearest to p within maxDist, with the
// projection onto its full geometry ("the link with the shortest distance
// is then selected, if it is not farther away than u_m", paper §3).
func (g *Graph) NearestLink(p geo.Point, maxDist float64) (LinkMatch, bool) {
	return g.NearestLinkWith(p, maxDist, new(spatial.NearestScratch))
}

// NearestLinkWith is NearestLink over the caller's reusable index
// scratch, so repeated acquisitions (the map matcher's) allocate nothing.
func (g *Graph) NearestLinkWith(p geo.Point, maxDist float64, s *spatial.NearestScratch) (LinkMatch, bool) {
	hits := g.index.NearestKWith(p, 1, maxDist, s)
	if len(hits) == 0 {
		return LinkMatch{Link: NoLink}, false
	}
	link, _ := decodeSegID(hits[0].Entry.ID)
	return LinkMatch{Link: link, Proj: g.links[link].Project(p)}, true
}
