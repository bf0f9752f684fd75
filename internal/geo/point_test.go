package geo

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dot(q); got != -3+8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestPointDist(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestPointHeading(t *testing.T) {
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 0), 0},
		{Pt(0, 1), math.Pi / 2},
		{Pt(-1, 0), math.Pi},
		{Pt(0, -1), -math.Pi / 2},
	}
	for _, c := range cases {
		if got := c.p.Heading(); !approx(got, c.want, eps) {
			t.Errorf("Heading(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPolarPoint(t *testing.T) {
	p := PolarPoint(Pt(1, 1), math.Pi/2, 5)
	if !approx(p.X, 1, eps) || !approx(p.Y, 6, eps) {
		t.Errorf("PolarPoint = %v", p)
	}
}

func TestPointLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if Pt(math.NaN(), 0).IsFinite() || Pt(0, math.Inf(1)).IsFinite() {
		t.Error("non-finite point reported finite")
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e9)
		}
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Keep inputs in a sane range to avoid float overflow artefacts.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolarPointRoundTripProperty(t *testing.T) {
	f := func(ox, oy, h, r float64) bool {
		clamp := func(v, lim float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, lim)
		}
		o := Pt(clamp(ox, 1e6), clamp(oy, 1e6))
		heading := clamp(h, math.Pi)
		radius := math.Abs(clamp(r, 1e5))
		p := PolarPoint(o, heading, radius)
		return approx(o.Dist(p), radius, 1e-6*(1+radius))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
