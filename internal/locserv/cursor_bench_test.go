package locserv

// Gate benchmark for the query-heavy map-predictor mix (PR 2): every
// Nearest fan-out evaluates each object's prediction, so before the
// cursor layer a store of map-predicted objects paid a full road-graph
// re-walk per object per query, growing with the time since each
// object's last report. The cursors cached in each core.Server are
// reused across successive fan-outs, so the same mix costs O(time
// delta) per object.

import (
	"fmt"
	"math"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/wire"
)

// nocursorGraphPred replaces a map-bound predictor's cursor with a
// re-walking one, forcing servers onto the stateless Predict path (the
// pre-cursor behaviour). It also states no drift bound, so its objects
// stay on the scan path and the baseline measures a pre-cursor store.
type nocursorGraphPred struct{ core.GraphPredictor }

// DisplacementBound implements core.Predictor.
func (nocursorGraphPred) DisplacementBound(core.Report) float64 { return math.Inf(1) }

// NewCursor implements core.Predictor.
func (p nocursorGraphPred) NewCursor(rep core.Report) core.Cursor {
	return &rewalkCursor{p: p.GraphPredictor, rep: rep}
}

// rewalkCursor answers every query from the report: At is Predict, and
// AtState a fresh cursor of the wrapped predictor.
type rewalkCursor struct {
	p   core.Predictor
	rep core.Report
}

func (c *rewalkCursor) At(t float64) geo.Point { return c.p.Predict(c.rep, t) }
func (c *rewalkCursor) AtState(t float64) (geo.Point, float64) {
	return c.p.NewCursor(c.rep).AtState(t)
}
func (c *rewalkCursor) Report() core.Report   { return c.rep }
func (c *rewalkCursor) Reset(rep core.Report) { c.rep = rep }

const benchMapObjects = 10000

// benchMapService builds a store of benchMapObjects map-predicted
// vehicles spread around a ring road, each with an initial report.
func benchMapService(b *testing.B, pred core.GraphPredictor, g *roadmap.Graph, links []roadmap.LinkID) (*Service, []ObjectID) {
	b.Helper()
	s := NewSharded(DefaultShards)
	ids := make([]ObjectID, benchMapObjects)
	batch := make([]wire.Record, benchMapObjects)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("cab-%05d", i))
		if err := s.Register(ids[i], pred); err != nil {
			b.Fatal(err)
		}
		link := links[i%len(links)]
		off := float64(i%50) + 1
		pos, _ := g.Link(link).PointAtDirected(off, true)
		batch[i] = wire.Record{ID: string(ids[i]), Update: core.Update{Report: core.Report{
			Seq: 1, T: 0, Pos: pos, V: 10 + float64(i%10),
			Link: roadmap.Dir{Link: link, Forward: true}, Offset: off,
		}}}
	}
	if _, err := s.DeliverRecords(batch, nil); err != nil {
		b.Fatal(err)
	}
	return s, ids
}

// BenchmarkMapQueryMix runs the query-heavy mix — one 10-NN fan-out plus
// 32 point queries per op — at query times advancing 20 s per op through
// a 600 s quiet period (no interleaved updates), wrapping back to the
// report time every 30 ops. The stateless path pays a re-walk from the
// report per object per fan-out, growing across the quiet period; the
// cursors cached in each replica advance incrementally and restart only
// at the wrap.
func BenchmarkMapQueryMix(b *testing.B) {
	g, links := buildRingGraph(b, 48, 500)
	run := func(b *testing.B, pred core.GraphPredictor) {
		s, ids := benchMapService(b, pred, g, links)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qt := float64(i * 20 % 600)
			if hits := s.Nearest(geo.Pt(500, 0), 10, qt); len(hits) != 10 {
				b.Fatalf("hits = %d", len(hits))
			}
			for q := 0; q < 32; q++ {
				if _, ok := s.Position(ids[(i*31+q*13)%len(ids)], qt); !ok {
					b.Fatal("missing position")
				}
			}
		}
	}
	b.Run("stateless", func(b *testing.B) { run(b, nocursorGraphPred{core.NewMapPredictor(g)}) })
	b.Run("cursor", func(b *testing.B) { run(b, core.NewMapPredictor(g)) })
}
