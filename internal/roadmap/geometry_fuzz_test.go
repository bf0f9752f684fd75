package roadmap

import (
	"encoding/binary"
	"math"
	"testing"

	"mapdr/internal/geo"
)

// refPosAtLength is the polyline walk as it was computed before links
// kept a geometry table: math.Hypot per vertex walked and math.Atan2 per
// call. FuzzLinkGeometry holds the table-driven walk to it bit for bit.
func refPosAtLength(pl geo.Polyline, s float64) (geo.Point, float64) {
	if s <= 0 {
		return pl[0], pl.Segment(0).Heading()
	}
	remaining := s
	for i := 1; i < len(pl); i++ {
		d := pl[i-1].Dist(pl[i])
		if remaining <= d {
			seg := geo.Segment{A: pl[i-1], B: pl[i]}
			if d == 0 {
				return pl[i], seg.Heading()
			}
			return seg.PointAt(remaining / d), seg.Heading()
		}
		remaining -= d
	}
	return pl[len(pl)-1], pl.Segment(len(pl) - 2).Heading()
}

// refProject is the reference projection, recomputing every segment
// length.
func refProject(pl geo.Polyline, p geo.Point) geo.PolylineProjection {
	best := geo.PolylineProjection{Dist: math.Inf(1)}
	var walked float64
	for i := 0; i < len(pl)-1; i++ {
		seg := geo.Segment{A: pl[i], B: pl[i+1]}
		segLen := seg.Length()
		q, t := seg.ClosestPoint(p)
		if d := p.Dist(q); d < best.Dist {
			best = geo.PolylineProjection{Point: q, Offset: walked + t*segLen, Dist: d, Segment: i}
		}
		walked += segLen
	}
	return best
}

// refCum is the reference running sum of segment lengths per vertex.
func refCum(pl geo.Polyline) []float64 {
	cum := make([]float64, len(pl))
	for i := 1; i < len(pl); i++ {
		cum[i] = cum[i-1] + pl[i-1].Dist(pl[i])
	}
	return cum
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b geo.Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// fuzzShape decodes vertices from raw, four bytes each (two int16 grid
// coordinates times scale), so zero-length segments, repeated vertices
// and near-collinear runs are all easy for the fuzzer to reach.
func fuzzShape(raw []byte, scale float64) geo.Polyline {
	var pl geo.Polyline
	for len(raw) >= 4 && len(pl) < 64 {
		x := float64(int16(binary.LittleEndian.Uint16(raw)))
		y := float64(int16(binary.LittleEndian.Uint16(raw[2:])))
		pl = append(pl, geo.Pt(x*scale, y*scale))
		raw = raw[4:]
	}
	return pl
}

func shapeBytes(pts ...[2]int16) []byte {
	var b []byte
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint16(b, uint16(p[0]))
		b = binary.LittleEndian.AppendUint16(b, uint16(p[1]))
	}
	return b
}

// FuzzLinkGeometry builds a link from an arbitrary finite shape and
// checks, in both travel directions, that PointAt, PointAtDirected,
// EntryHeading, ExitHeading, Project and Length read from the link's
// geometry table give the same float64s as the reference computation.
// Offsets include every vertex's running length, where the walk's
// "remaining <= d" comparison ties.
func FuzzLinkGeometry(f *testing.F) {
	f.Add(shapeBytes([2]int16{0, 0}, [2]int16{100, 0}), 1.0, 37.5, 3.0, -4.0)                                              // one segment
	f.Add(shapeBytes([2]int16{0, 0}, [2]int16{100, 0}, [2]int16{100, 0}, [2]int16{100, 80}), 0.7, 100.0, 50.0, 1.0)        // zero-length segment
	f.Add(shapeBytes([2]int16{0, 0}, [2]int16{15000, 1}, [2]int16{30000, 0}, [2]int16{-30000, 2}), 0.01, 299.99, 7.0, 7.0) // near-collinear, doubling back
	f.Add(shapeBytes([2]int16{5, 5}, [2]int16{5, 5}, [2]int16{5, 5}, [2]int16{9, -3}), 1e-3, 1e-3, 0.0, 0.0)               // leading repeats
	f.Add(shapeBytes([2]int16{-7, 3}, [2]int16{2, 11}, [2]int16{13, -4}, [2]int16{-1, -9}, [2]int16{20, 20}), 123.456, -1.0, 1e3, -2e3)
	f.Fuzz(func(t *testing.T, raw []byte, scale, off, qx, qy float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.IsNaN(qx) || math.IsInf(qx, 0) || math.IsNaN(qy) || math.IsInf(qy, 0) {
			return
		}
		shape := fuzzShape(raw, scale)
		if len(shape) < 2 {
			return
		}
		b := NewBuilder()
		from := b.AddNode(shape[0])
		to := b.AddNode(shape[len(shape)-1])
		id := b.AddLink(LinkSpec{From: from, To: to, Shape: shape})
		g, err := b.Build()
		if err != nil {
			return // zero-length or non-finite: rejected at build
		}
		l := g.Link(id)
		pl := l.Shape
		cum := refCum(pl)
		length := cum[len(cum)-1]
		if !sameBits(l.Length(), length) {
			t.Fatalf("Length %v, reference %v", l.Length(), length)
		}
		offsets := append([]float64{off, 0, -1, length / 2, length, length + 1, math.NaN(), math.Inf(1)}, cum...)
		for _, s := range offsets {
			p, h := l.PointAt(s)
			rp, rh := refPosAtLength(pl, s)
			if !samePoint(p, rp) || !sameBits(h, rh) {
				t.Fatalf("PointAt(%v) = %v, %v; reference %v, %v", s, p, h, rp, rh)
			}
			for _, fwd := range []bool{true, false} {
				canon := s
				if !fwd {
					canon = length - s
				}
				rp, rh := refPosAtLength(pl, canon)
				if !fwd {
					rh = geo.NormalizeAngle(rh + math.Pi)
				}
				p, h := l.PointAtDirected(s, fwd)
				if !samePoint(p, rp) || !sameBits(h, rh) {
					t.Fatalf("PointAtDirected(%v, %v) = %v, %v; reference %v, %v", s, fwd, p, h, rp, rh)
				}
			}
		}
		last := pl.NumSegments() - 1
		first, final := pl.Segment(0).Heading(), pl.Segment(last).Heading()
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"EntryHeading(true)", l.EntryHeading(true), first},
			{"EntryHeading(false)", l.EntryHeading(false), geo.NormalizeAngle(final + math.Pi)},
			{"ExitHeading(true)", l.ExitHeading(true), final},
			{"ExitHeading(false)", l.ExitHeading(false), geo.NormalizeAngle(first + math.Pi)},
		} {
			if !sameBits(c.got, c.want) {
				t.Fatalf("%s = %v, reference %v", c.name, c.got, c.want)
			}
		}
		queries := append(geo.Polyline{geo.Pt(qx, qy)}, pl...)
		for _, q := range queries {
			got, want := l.Project(q), refProject(pl, q)
			if !samePoint(got.Point, want.Point) || !sameBits(got.Offset, want.Offset) ||
				!sameBits(got.Dist, want.Dist) || got.Segment != want.Segment {
				t.Fatalf("Project(%v) = %+v, reference %+v", q, got, want)
			}
		}
	})
}
