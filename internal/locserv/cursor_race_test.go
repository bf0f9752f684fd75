package locserv

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/wire"
)

// buildRingGraph builds a closed ring road (every node degree 2), the
// simplest network on which the map-based walk advances forever.
func buildRingGraph(t testing.TB, n int, r float64) (*roadmap.Graph, []roadmap.LinkID) {
	t.Helper()
	b := roadmap.NewBuilder()
	ids := make([]roadmap.NodeID, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		ids[i] = b.AddNode(geo.Pt(r*math.Cos(ang), r*math.Sin(ang)))
	}
	links := make([]roadmap.LinkID, n)
	for i := 0; i < n; i++ {
		links[i] = b.AddLink(roadmap.LinkSpec{From: ids[i], To: ids[(i+1)%n]})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, links
}

// TestConcurrentCursorQueries hammers a sharded store of map-predictor
// objects with parallel Nearest/Within/Position fan-outs at advancing
// and occasionally rewinding times while batches land. Under -race this
// exercises concurrent use of each server's cached prediction cursor
// (readers share it through the server's cursor mutex inside the shard
// read lock). Afterwards every answer path is checked bit-identical to
// the stateless prediction of the object's last report.
func TestConcurrentCursorQueries(t *testing.T) {
	const (
		nObjs   = 48
		readers = 8
		rounds  = 40
	)
	g, links := buildRingGraph(t, 24, 500)
	mp := core.NewMapPredictor(g)
	s := NewSharded(8)
	ids := make([]ObjectID, nObjs)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("cab-%02d", i))
		if err := s.Register(ids[i], core.NewMapPredictor(g)); err != nil {
			t.Fatal(err)
		}
	}
	mkReport := func(i int, seq uint32) core.Report {
		link := links[(i+int(seq))%len(links)]
		pos, _ := g.Link(link).PointAtDirected(5, true)
		return core.Report{
			Seq: seq, T: float64(seq) * 10, Pos: pos, V: 8 + float64(i%7),
			Heading: 0, Link: roadmap.Dir{Link: link, Forward: true}, Offset: 5,
		}
	}
	batch := make([]wire.Record, nObjs)
	for i := range ids {
		batch[i] = wire.Record{ID: string(ids[i]), Update: core.Update{Report: mkReport(i, 1)}}
	}
	if _, err := s.DeliverRecords(batch, nil); err != nil {
		t.Fatal(err)
	}

	var round atomic.Int64
	round.Store(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for seq := uint32(2); seq < rounds; seq++ {
			b := make([]wire.Record, nObjs)
			for i := range ids {
				b[i] = wire.Record{ID: string(ids[i]), Update: core.Update{Report: mkReport(i, seq)}}
			}
			if _, err := s.DeliverRecords(b, nil); err != nil {
				t.Error(err)
				return
			}
			round.Store(int64(seq))
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				// Advancing times, with a periodic rewind to force the
				// cursors' backwards-time restart under concurrency.
				base := float64(round.Load()) * 10
				qt := base + float64(q%50)
				if q%17 == 0 {
					qt = base - 5
				}
				s.Nearest(geo.Pt(500, 0), 5, qt)
				s.Within(geo.Rect{Min: geo.Pt(-600, -600), Max: geo.Pt(600, 600)}, qt)
				s.Position(ids[(w*7+q)%len(ids)], qt)
				q++
			}
		}(w)
	}
	wg.Wait()

	// Post-condition: cursor-served answers equal stateless predictions.
	for i, id := range ids {
		want := mkReport(i, rounds-1)
		for _, dt := range []float64{0, 3, 47, 12} {
			qt := want.T + dt
			got, ok := s.Position(id, qt)
			if !ok {
				t.Fatalf("object %s lost", id)
			}
			if exp := mp.Predict(want, qt); got != exp {
				t.Fatalf("object %s t=%v: %v != stateless %v", id, qt, got, exp)
			}
		}
	}
}
