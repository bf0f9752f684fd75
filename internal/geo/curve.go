package geo

import "math"

// CubicBezier samples a cubic Bezier curve with control points p0..p3 into
// n+1 polyline vertices (n segments). n must be at least 1.
func CubicBezier(p0, p1, p2, p3 Point, n int) Polyline {
	if n < 1 {
		panic("geo: CubicBezier needs n >= 1")
	}
	out := make(Polyline, 0, n+1)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		u := 1 - t
		a := u * u * u
		b := 3 * u * u * t
		c := 3 * u * t * t
		d := t * t * t
		out = append(out, Point{
			X: a*p0.X + b*p1.X + c*p2.X + d*p3.X,
			Y: a*p0.Y + b*p1.Y + c*p2.Y + d*p3.Y,
		})
	}
	return out
}

// Arc samples a circular arc centred at c with the given radius from angle
// a0 to a1 (radians, CCW positive) into a polyline with n segments.
func Arc(c Point, radius, a0, a1 float64, n int) Polyline {
	if n < 1 {
		panic("geo: Arc needs n >= 1")
	}
	out := make(Polyline, 0, n+1)
	for i := 0; i <= n; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(n)
		out = append(out, Point{X: c.X + radius*math.Cos(a), Y: c.Y + radius*math.Sin(a)})
	}
	return out
}

// CurvatureAt estimates the signed curvature (1/m) of a polyline at vertex
// i from the two adjacent segments: deflection angle divided by mean
// segment length. Positive curvature bends left. Vertices without two
// neighbours have zero curvature.
func CurvatureAt(pl Polyline, i int) float64 {
	if i <= 0 || i >= len(pl)-1 {
		return 0
	}
	h1 := pl.Segment(i - 1).Heading()
	h2 := pl.Segment(i).Heading()
	d1 := pl.Segment(i - 1).Length()
	d2 := pl.Segment(i).Length()
	mean := (d1 + d2) / 2
	if mean == 0 {
		return 0
	}
	return AngleDiff(h1, h2) / mean
}
