package geo

import "math"

// NormalizeAngle maps an angle in radians to the interval (-pi, pi].
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a <= -math.Pi:
		a += 2 * math.Pi
	case a > math.Pi:
		a -= 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest rotation from angle a to angle b,
// in (-pi, pi].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(b - a) }

// AbsAngleDiff returns the unsigned smallest angle between a and b, in
// [0, pi].
func AbsAngleDiff(a, b float64) float64 { return math.Abs(AngleDiff(a, b)) }

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// HeadingToCompass converts a mathematical heading (radians CCW from +X/east)
// to a compass bearing in degrees (clockwise from north, [0, 360)).
func HeadingToCompass(heading float64) float64 {
	deg := 90 - Deg(heading)
	deg = math.Mod(deg, 360)
	if deg < 0 {
		deg += 360
	}
	return deg
}
