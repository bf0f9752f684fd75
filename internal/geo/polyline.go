package geo

import "math"

// Polyline is an ordered sequence of vertices describing a piecewise-linear
// curve. Road link geometry (intersection, shape points, intersection) is a
// Polyline.
type Polyline []Point

// Length returns the total length of the polyline.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// CumLengths returns the cumulative arc length at every vertex. The result
// has len(pl) entries; entry 0 is 0 and the last entry equals Length().
// Returns nil for an empty polyline.
func (pl Polyline) CumLengths() []float64 {
	if len(pl) == 0 {
		return nil
	}
	cum := make([]float64, len(pl))
	for i := 1; i < len(pl); i++ {
		cum[i] = cum[i-1] + pl[i-1].Dist(pl[i])
	}
	return cum
}

// Bounds returns the bounding rectangle of all vertices.
func (pl Polyline) Bounds() Rect { return RectFromPoints(pl...) }

// Segment returns the i-th segment (from vertex i to vertex i+1).
func (pl Polyline) Segment(i int) Segment { return Segment{A: pl[i], B: pl[i+1]} }

// NumSegments returns the number of segments in the polyline.
func (pl Polyline) NumSegments() int {
	if len(pl) < 2 {
		return 0
	}
	return len(pl) - 1
}

// SegGeom is the geometry of one polyline segment that a walk along
// the polyline reads: everything about the segment that does not depend
// on the query, computed once.
type SegGeom struct {
	Len     float64 // length: the distance between its vertices
	Heading float64 // travel heading from its first vertex to its second
	Back    float64 // travel heading the other way: NormalizeAngle(Heading + π)
}

// Geometry returns the per-segment geometry table of pl, one entry per
// segment (nil for fewer than two vertices). Walk and ProjectWith read
// it instead of recomputing lengths and headings per call.
func (pl Polyline) Geometry() []SegGeom {
	if len(pl) < 2 {
		return nil
	}
	tab := make([]SegGeom, len(pl)-1)
	for i := range tab {
		h := pl.Segment(i).Heading()
		tab[i] = SegGeom{Len: pl[i].Dist(pl[i+1]), Heading: h, Back: NormalizeAngle(h + math.Pi)}
	}
	return tab
}

// Walk returns the point at arc length s from the start of pl and the
// index of the segment holding it, reading segment lengths from tab,
// which must be pl.Geometry() (pl has at least two vertices). s is
// clamped to [0, Length()]: at or below 0 the walk stays at the first
// vertex of segment 0, past the end (or for a NaN s) at the last vertex
// of the last segment. It subtracts the segment lengths from s one by
// one, in order: predictions rely on that order to come out bit for bit
// the same, so it must not become a search over running sums.
func (pl Polyline) Walk(tab []SegGeom, s float64) (Point, int) {
	if s <= 0 {
		return pl[0], 0
	}
	remaining := s
	for i := range tab {
		d := tab[i].Len
		if remaining <= d {
			if d == 0 {
				return pl[i+1], i
			}
			return Segment{A: pl[i], B: pl[i+1]}.PointAt(remaining / d), i
		}
		remaining -= d
	}
	return pl[len(pl)-1], len(tab) - 1
}

// Projection is the result of projecting a point onto a polyline.
type PolylineProjection struct {
	Point   Point   // nearest point on the polyline
	Offset  float64 // arc length from the start of the polyline to Point
	Dist    float64 // distance from the query point to Point
	Segment int     // index of the segment containing Point
}

// ProjectWith returns the closest point to p on pl, a polyline of at
// least two vertices whose segment lengths are read from tab, which must
// be pl.Geometry().
func (pl Polyline) ProjectWith(tab []SegGeom, p Point) PolylineProjection {
	best := PolylineProjection{Dist: math.Inf(1)}
	var walked float64
	for i := range tab {
		segLen := tab[i].Len
		q, t := Segment{A: pl[i], B: pl[i+1]}.ClosestPoint(p)
		d := p.Dist(q)
		if d < best.Dist {
			best = PolylineProjection{
				Point:   q,
				Offset:  walked + t*segLen,
				Dist:    d,
				Segment: i,
			}
		}
		walked += segLen
	}
	return best
}

// Reversed returns a copy of the polyline with vertex order reversed.
func (pl Polyline) Reversed() Polyline {
	out := make(Polyline, len(pl))
	for i, p := range pl {
		out[len(pl)-1-i] = p
	}
	return out
}

// Clone returns a deep copy of the polyline.
func (pl Polyline) Clone() Polyline {
	out := make(Polyline, len(pl))
	copy(out, pl)
	return out
}

// Resample returns a polyline with vertices spaced at most step apart,
// preserving the original vertices. step must be positive.
func (pl Polyline) Resample(step float64) Polyline {
	if step <= 0 {
		panic("geo: Resample step must be positive")
	}
	if len(pl) < 2 {
		return pl.Clone()
	}
	out := Polyline{pl[0]}
	for i := 1; i < len(pl); i++ {
		seg := Segment{A: pl[i-1], B: pl[i]}
		d := seg.Length()
		if d > step {
			n := int(math.Ceil(d / step))
			for k := 1; k < n; k++ {
				out = append(out, seg.PointAt(float64(k)/float64(n)))
			}
		}
		out = append(out, pl[i])
	}
	return out
}

// Simplify returns a simplified polyline using the Douglas-Peucker
// algorithm with the given tolerance. Endpoints are always preserved.
func (pl Polyline) Simplify(tol float64) Polyline {
	if len(pl) < 3 {
		return pl.Clone()
	}
	keep := make([]bool, len(pl))
	keep[0], keep[len(pl)-1] = true, true
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		seg := Segment{A: pl[lo], B: pl[hi]}
		maxDist, maxIdx := -1.0, -1
		for i := lo + 1; i < hi; i++ {
			if d := seg.DistanceTo(pl[i]); d > maxDist {
				maxDist, maxIdx = d, i
			}
		}
		if maxDist > tol {
			keep[maxIdx] = true
			rec(lo, maxIdx)
			rec(maxIdx, hi)
		}
	}
	rec(0, len(pl)-1)
	out := make(Polyline, 0, len(pl))
	for i, k := range keep {
		if k {
			out = append(out, pl[i])
		}
	}
	return out
}
