package geo

// Segment is a directed straight line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Heading returns the direction of the segment in radians CCW from +X.
// A degenerate segment has heading 0.
func (s Segment) Heading() float64 { return s.B.Sub(s.A).Heading() }

// Bounds returns the bounding rectangle of the segment.
func (s Segment) Bounds() Rect { return RectFromPoints(s.A, s.B) }

// PointAt returns the point at parameter t along the segment; t is clamped
// to [0, 1].
func (s Segment) PointAt(t float64) Point {
	if t <= 0 {
		return s.A
	}
	if t >= 1 {
		return s.B
	}
	return s.A.Lerp(s.B, t)
}

// ClosestPoint returns the point on the segment nearest to p, together with
// the clamped parameter t in [0, 1].
func (s Segment) ClosestPoint(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.PointAt(t), t
}

// DistanceTo returns the distance from p to the nearest point of the
// segment.
func (s Segment) DistanceTo(p Point) float64 {
	q, _ := s.ClosestPoint(p)
	return p.Dist(q)
}
