package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func squareLine() Polyline {
	return Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
}

func TestPolylineLength(t *testing.T) {
	if l := squareLine().Length(); !approx(l, 30, eps) {
		t.Errorf("Length = %v", l)
	}
	if l := (Polyline{}).Length(); l != 0 {
		t.Errorf("empty Length = %v", l)
	}
	if l := (Polyline{Pt(1, 1)}).Length(); l != 0 {
		t.Errorf("single Length = %v", l)
	}
}

func TestPolylineCumLengths(t *testing.T) {
	cum := squareLine().CumLengths()
	want := []float64{0, 10, 20, 30}
	for i := range want {
		if !approx(cum[i], want[i], eps) {
			t.Errorf("cum[%d] = %v, want %v", i, cum[i], want[i])
		}
	}
	if (Polyline{}).CumLengths() != nil {
		t.Error("empty CumLengths should be nil")
	}
}

func TestPolylinePointAtLength(t *testing.T) {
	pl := squareLine()
	cases := []struct {
		s    float64
		want Point
	}{
		{-5, Pt(0, 0)},
		{0, Pt(0, 0)},
		{5, Pt(5, 0)},
		{10, Pt(10, 0)},
		{15, Pt(10, 5)},
		{30, Pt(0, 10)},
		{99, Pt(0, 10)},
	}
	tab := pl.Geometry()
	for _, c := range cases {
		if got, _ := pl.Walk(tab, c.s); got.Dist(c.want) > eps {
			t.Errorf("Walk(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPolylinePosAtLengthHeading(t *testing.T) {
	pl := squareLine()
	tab := pl.Geometry()
	heading := func(s float64) float64 { _, seg := pl.Walk(tab, s); return tab[seg].Heading }
	if h := heading(5); !approx(h, 0, eps) {
		t.Errorf("heading at 5 = %v", h)
	}
	if h := heading(15); !approx(h, math.Pi/2, eps) {
		t.Errorf("heading at 15 = %v", h)
	}
	if h := heading(1e9); !approx(h, math.Pi, eps) {
		t.Errorf("heading beyond end = %v", h)
	}
}

func TestPolylineProject(t *testing.T) {
	pl := squareLine()
	tab := pl.Geometry()
	pr := pl.ProjectWith(tab, Pt(5, -3))
	if pr.Point.Dist(Pt(5, 0)) > eps || !approx(pr.Offset, 5, eps) || !approx(pr.Dist, 3, eps) || pr.Segment != 0 {
		t.Errorf("Project = %+v", pr)
	}
	pr = pl.ProjectWith(tab, Pt(12, 5))
	if pr.Point.Dist(Pt(10, 5)) > eps || !approx(pr.Offset, 15, eps) || pr.Segment != 1 {
		t.Errorf("Project = %+v", pr)
	}
}

func TestPolylineProjectOnCurveProperty(t *testing.T) {
	// Projecting a point that lies on the polyline returns ~zero distance
	// and an offset that walks back to the same point.
	rng := rand.New(rand.NewSource(7))
	pl := CubicBezier(Pt(0, 0), Pt(300, 400), Pt(700, -200), Pt(1000, 100), 50)
	tab := pl.Geometry()
	total := pl.Length()
	for i := 0; i < 200; i++ {
		s := rng.Float64() * total
		p, _ := pl.Walk(tab, s)
		pr := pl.ProjectWith(tab, p)
		if pr.Dist > 1e-6 {
			t.Fatalf("on-line point projected at distance %v", pr.Dist)
		}
		if back, _ := pl.Walk(tab, pr.Offset); back.Dist(p) > 1e-6 {
			t.Fatalf("offset round trip failed at s=%v", s)
		}
	}
}

func TestPolylineProjectOffsetRangeProperty(t *testing.T) {
	pl := squareLine()
	tab := pl.Geometry()
	total := pl.Length()
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		x, y = math.Mod(x, 100), math.Mod(y, 100)
		pr := pl.ProjectWith(tab, Pt(x, y))
		return pr.Offset >= -eps && pr.Offset <= total+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolylineReversed(t *testing.T) {
	pl := squareLine()
	rev := pl.Reversed()
	if rev[0] != pl[3] || rev[3] != pl[0] {
		t.Errorf("Reversed = %v", rev)
	}
	if !approx(rev.Length(), pl.Length(), eps) {
		t.Error("Reversed changed length")
	}
}

func TestPolylineResample(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0)}
	rs := pl.Resample(3)
	if len(rs) != 5 {
		t.Fatalf("Resample len = %d, want 5", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if d := rs[i-1].Dist(rs[i]); d > 3+eps {
			t.Errorf("gap %d = %v > 3", i, d)
		}
	}
	if !approx(rs.Length(), pl.Length(), eps) {
		t.Error("Resample changed length")
	}
}

func TestPolylineSimplify(t *testing.T) {
	// Collinear interior points collapse.
	pl := Polyline{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0)}
	s := pl.Simplify(0.01)
	if len(s) != 2 {
		t.Errorf("Simplify collinear = %d points", len(s))
	}
	// A genuine corner is preserved.
	pl = Polyline{Pt(0, 0), Pt(5, 0), Pt(5, 5)}
	s = pl.Simplify(0.01)
	if len(s) != 3 {
		t.Errorf("Simplify corner = %d points", len(s))
	}
	// Simplification never moves the line further than tol from original
	// vertices.
	curve := CubicBezier(Pt(0, 0), Pt(100, 300), Pt(200, -300), Pt(300, 0), 64)
	tol := 5.0
	simp := curve.Simplify(tol)
	tab := simp.Geometry()
	for _, p := range curve {
		if pr := simp.ProjectWith(tab, p); pr.Dist > tol+eps {
			t.Errorf("simplified line %v away from original vertex", pr.Dist)
		}
	}
}
