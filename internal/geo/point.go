// Package geo provides the planar and geodetic geometry primitives used by
// the map-based dead-reckoning system: points in a local tangent plane
// (metres), WGS84 coordinates and projections between the two, segments,
// polylines and the projection operations needed for map matching.
//
// All protocol mathematics runs in the planar domain. Geodetic coordinates
// appear only at the I/O boundary (NMEA sentences, GeoJSON-like exports).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in a local tangent plane, in metres. X grows east,
// Y grows north.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q seen as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p seen as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Heading returns the direction of p seen as a vector, in radians in
// (-pi, pi], measured counter-clockwise from the +X (east) axis.
func (p Point) Heading() float64 { return math.Atan2(p.Y, p.X) }

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// PolarPoint returns the point at distance r from origin o in direction
// heading (radians from +X axis).
func PolarPoint(o Point, heading, r float64) Point {
	return Point{o.X + r*math.Cos(heading), o.Y + r*math.Sin(heading)}
}
