package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyRect(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if r.Width() != 0 || r.Height() != 0 {
		t.Error("empty rect has nonzero size")
	}
	if r.Contains(Pt(0, 0)) {
		t.Error("empty rect contains a point")
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(1, 5), Pt(-2, 3), Pt(0, 7))
	want := Rect{Min: Pt(-2, 3), Max: Pt(1, 7)}
	if r != want {
		t.Errorf("RectFromPoints = %v, want %v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("should contain %v", p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 5), Pt(5, 10.1), Pt(11, 11)} {
		if r.Contains(p) {
			t.Errorf("should not contain %v", p)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	b := Rect{Min: Pt(5, 5), Max: Pt(15, 15)}
	c := Rect{Min: Pt(11, 11), Max: Pt(12, 12)}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	// Touching edges intersect.
	d := Rect{Min: Pt(10, 0), Max: Pt(20, 10)}
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(EmptyRect()) {
		t.Error("nothing intersects the empty rect")
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	b := Rect{Min: Pt(2, 2), Max: Pt(3, 3)}
	u := a.Union(b)
	if u != (Rect{Min: Pt(0, 0), Max: Pt(3, 3)}) {
		t.Errorf("Union = %v", u)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %v", got)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Errorf("empty Union a = %v", got)
	}
	e := a.Expand(1)
	if e != (Rect{Min: Pt(-1, -1), Max: Pt(2, 2)}) {
		t.Errorf("Expand = %v", e)
	}
	if !EmptyRect().Expand(5).IsEmpty() {
		t.Error("expanding empty rect should stay empty")
	}
}

func TestRectDistanceTo(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	if d := r.DistanceTo(Pt(5, 5)); d != 0 {
		t.Errorf("inside dist = %v", d)
	}
	if d := r.DistanceTo(Pt(13, 14)); !approx(d, 5, eps) {
		t.Errorf("corner dist = %v, want 5", d)
	}
	if d := r.DistanceTo(Pt(-3, 5)); !approx(d, 3, eps) {
		t.Errorf("edge dist = %v, want 3", d)
	}
}

func TestRectUnionContainsProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := RectFromPoints(Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by)))
		b := RectFromPoints(Pt(clamp(cx), clamp(cy)), Pt(clamp(dx), clamp(dy)))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
