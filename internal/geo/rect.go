package geo

import "math"

// Rect is an axis-aligned bounding rectangle in the planar domain.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a rectangle that contains nothing and acts as the
// identity for Union.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectFromPoints returns the smallest rectangle containing all pts.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the X extent (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the Y extent (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// ExtendPoint returns the smallest rectangle containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by d on every side. Expanding an empty rectangle
// yields an empty rectangle.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// DistanceTo returns the distance from p to the nearest point of r
// (0 if p is inside).
func (r Rect) DistanceTo(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}
