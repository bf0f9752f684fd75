package geo

import (
	"math"
	"testing"
)

func TestCubicBezierEndpoints(t *testing.T) {
	p0, p3 := Pt(0, 0), Pt(100, 50)
	pl := CubicBezier(p0, Pt(30, 80), Pt(70, -20), p3, 16)
	if len(pl) != 17 {
		t.Fatalf("len = %d", len(pl))
	}
	if pl[0] != p0 || pl[16].Dist(p3) > eps {
		t.Errorf("endpoints %v..%v", pl[0], pl[16])
	}
}

func TestArcGeometry(t *testing.T) {
	c := Pt(0, 0)
	pl := Arc(c, 10, 0, math.Pi/2, 8)
	if len(pl) != 9 {
		t.Fatalf("len = %d", len(pl))
	}
	for _, p := range pl {
		if !approx(p.Dist(c), 10, eps) {
			t.Errorf("arc point %v not at radius 10", p)
		}
	}
	// Arc length of a quarter circle with r=10 is ~15.7; the chordal
	// approximation is slightly shorter but close.
	l := pl.Length()
	want := math.Pi / 2 * 10
	if l > want || l < want*0.99 {
		t.Errorf("arc length = %v, want ≈%v", l, want)
	}
}

func TestCurvatureOfCircle(t *testing.T) {
	// A sampled circle of radius r has curvature ≈ 1/r at interior vertices.
	r := 100.0
	pl := Arc(Pt(0, 0), r, 0, math.Pi, 64)
	for i := 5; i < len(pl)-5; i++ {
		c := CurvatureAt(pl, i)
		if !approx(c, 1/r, 0.001) {
			t.Fatalf("curvature at %d = %v, want %v", i, c, 1/r)
		}
	}
	// Straight line: zero curvature.
	line := Polyline{Pt(0, 0), Pt(10, 0), Pt(20, 0)}
	if c := CurvatureAt(line, 1); c != 0 {
		t.Errorf("line curvature = %v", c)
	}
}

func TestCurvatureSign(t *testing.T) {
	left := Polyline{Pt(0, 0), Pt(10, 0), Pt(20, 5)}
	if CurvatureAt(left, 1) <= 0 {
		t.Error("left bend should have positive curvature")
	}
	right := Polyline{Pt(0, 0), Pt(10, 0), Pt(20, -5)}
	if CurvatureAt(right, 1) >= 0 {
		t.Error("right bend should have negative curvature")
	}
}
