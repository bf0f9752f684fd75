package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if s.Length() != 5 {
		t.Errorf("Length = %v", s.Length())
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p     Point
		wantQ Point
		wantT float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5},
		{Pt(-2, 1), Pt(0, 0), 0},   // clamped to A
		{Pt(12, -1), Pt(10, 0), 1}, // clamped to B
		{Pt(0, 0), Pt(0, 0), 0},    // on endpoint
	}
	for _, c := range cases {
		q, tt := s.ClosestPoint(c.p)
		if q.Dist(c.wantQ) > eps || !approx(tt, c.wantT, eps) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", c.p, q, tt, c.wantQ, c.wantT)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Seg(Pt(2, 2), Pt(2, 2))
	q, tt := s.ClosestPoint(Pt(5, 6))
	if q != Pt(2, 2) || tt != 0 {
		t.Errorf("degenerate ClosestPoint = %v, %v", q, tt)
	}
	if d := s.DistanceTo(Pt(5, 6)); !approx(d, 5, eps) {
		t.Errorf("degenerate DistanceTo = %v", d)
	}
}

func TestSegmentDistance(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	if d := s.DistanceTo(Pt(5, 7)); !approx(d, 7, eps) {
		t.Errorf("DistanceTo = %v", d)
	}
}

func TestSegmentHeading(t *testing.T) {
	if h := Seg(Pt(0, 0), Pt(0, 5)).Heading(); !approx(h, math.Pi/2, eps) {
		t.Errorf("Heading = %v", h)
	}
}

func TestSegmentClosestPointIsNearestProperty(t *testing.T) {
	// The returned closest point must be at least as near as sampled points.
	f := func(ax, ay, bx, by, px, py float64, k uint8) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e4)
		}
		s := Seg(Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)))
		p := Pt(clamp(px), clamp(py))
		q, _ := s.ClosestPoint(p)
		best := p.Dist(q)
		sample := s.PointAt(float64(k) / 255)
		return best <= p.Dist(sample)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentPointAtClampProperty(t *testing.T) {
	f := func(tt float64) bool {
		if math.IsNaN(tt) || math.IsInf(tt, 0) {
			return true
		}
		s := Seg(Pt(0, 0), Pt(10, 0))
		p := s.PointAt(tt)
		return p.X >= 0 && p.X <= 10 && p.Y == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
