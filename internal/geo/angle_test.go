package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !approx(got, c.want, eps) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		n := NormalizeAngle(a)
		return n > -math.Pi-eps && n <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, -0.1); !approx(got, -0.2, eps) {
		t.Errorf("AngleDiff = %v", got)
	}
	// Wrap-around: from +170deg to -170deg is a +20deg turn.
	got := AngleDiff(Rad(170), Rad(-170))
	if !approx(got, Rad(20), eps) {
		t.Errorf("AngleDiff wrap = %v deg, want 20", Deg(got))
	}
}

func TestAbsAngleDiffRangeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		d := AbsAngleDiff(a, b)
		return d >= 0 && d <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 45, 90, -135, 180, 359} {
		if got := Deg(Rad(d)); !approx(got, d, 1e-9) {
			t.Errorf("Deg(Rad(%v)) = %v", d, got)
		}
	}
}

func TestCompassConversion(t *testing.T) {
	cases := []struct{ heading, compass float64 }{
		{0, 90},                 // east
		{math.Pi / 2, 0},        // north
		{math.Pi, 270},          // west
		{-math.Pi / 2, 180},     // south
		{math.Pi / 4, 45},       // north-east
		{-3 * math.Pi / 4, 225}, // south-west
	}
	for _, c := range cases {
		if got := HeadingToCompass(c.heading); !approx(got, c.compass, 1e-9) {
			t.Errorf("HeadingToCompass(%v) = %v, want %v", c.heading, got, c.compass)
		}
	}
}
