package locserv

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/trace"
	"mapdr/internal/wire"
)

// TestConcurrentBatchIngestAndQueries drives real protocol sources over
// curved motion, replays their updates through DeliverRecords on one
// goroutine while reader goroutines issue position/nearest/range
// queries, and asserts the protocol invariant: a query at the latest
// ingested sample time answers within u_s of ground truth. Run under
// -race this also exercises every lock path of the sharded store.
func TestConcurrentBatchIngestAndQueries(t *testing.T) {
	const (
		nObjs    = 24
		nSamples = 150
		us       = 50.0
		readers  = 8
	)
	s := NewSharded(8)

	type objData struct {
		id    ObjectID
		truth []geo.Point
		ups   []*core.Update // update triggered at sample k, or nil
	}
	objs := make([]objData, nObjs)
	for i := range objs {
		id := ObjectID(fmt.Sprintf("orb-%02d", i))
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		src, err := core.NewSource(core.SourceConfig{US: us, UP: 1, Sightings: 2}, core.LinearPredictor{})
		if err != nil {
			t.Fatal(err)
		}
		// Circular motion: linear prediction drifts off the arc, so the
		// deviation trigger fires repeatedly along the trace.
		center := geo.Pt(float64(i)*800, 0)
		radius := 200 + 5*float64(i)
		omega := 0.05
		o := objData{id: id, truth: make([]geo.Point, nSamples), ups: make([]*core.Update, nSamples)}
		for k := 0; k < nSamples; k++ {
			ang := omega * float64(k)
			pos := geo.Pt(center.X+radius*math.Cos(ang), center.Y+radius*math.Sin(ang))
			o.truth[k] = pos
			if u, ok := src.OnSample(trace.Sample{T: float64(k), Pos: pos}); ok {
				uc := u
				o.ups[k] = &uc
			}
		}
		if n := countUpdates(o.ups); n < 2 {
			t.Fatalf("object %s triggered only %d updates; scenario too tame", id, n)
		}
		objs[i] = o
	}

	// published is the last sample index whose batch has landed.
	var published atomic.Int64
	published.Store(-1)
	var checked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < nSamples; k++ {
			var batch []wire.Record
			for i := range objs {
				if u := objs[i].ups[k]; u != nil {
					batch = append(batch, wire.Record{ID: string(objs[i].id), Update: *u})
				}
			}
			if _, err := s.DeliverRecords(batch, nil); err != nil {
				t.Errorf("DeliverRecords(k=%d): %v", k, err)
				return
			}
			published.Store(int64(k))
			time.Sleep(50 * time.Microsecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := published.Load()
				if k < 0 {
					continue
				}
				o := &objs[rng.Intn(len(objs))]
				qt := float64(k)
				p, ok := s.Position(o.id, qt)
				// Only assert if no further batch landed during the
				// query: then the answer was computed from reports with
				// T <= k, where the source guarantees deviation <= u_s.
				if ok && published.Load() == k {
					if d := p.Dist(o.truth[k]); d > us+1 {
						t.Errorf("t=%v %s: server answer off by %.1f m (> u_s=%v)", qt, o.id, d, us)
						return
					}
					checked.Add(1)
				}
				s.Nearest(geo.Pt(0, 0), 3, qt)
				s.Within(geo.Rect{Min: geo.Pt(-500, -500), Max: geo.Pt(4000, 500)}, qt)
			}
		}(r)
	}
	wg.Wait()
	if checked.Load() == 0 {
		t.Error("no reader ever hit a stable snapshot; invariant untested")
	}
}

func countUpdates(ups []*core.Update) int {
	n := 0
	for _, u := range ups {
		if u != nil {
			n++
		}
	}
	return n
}

// TestConcurrentRegisterDeregister hammers the mutation paths alongside
// fan-out queries; meaningful mainly under -race.
func TestConcurrentRegisterDeregister(t *testing.T) {
	s := NewSharded(4)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ObjectID(fmt.Sprintf("w%d-%d", w, i%20))
				switch i % 4 {
				case 0:
					_ = s.Register(id, core.StaticPredictor{})
				case 1:
					_ = s.Apply(id, core.Update{Report: core.Report{Seq: uint32(i), Pos: geo.Pt(float64(i), 0)}})
				case 2:
					s.Nearest(geo.Pt(0, 0), 5, float64(i))
					s.Within(geo.Rect{Min: geo.Pt(-10, -10), Max: geo.Pt(1000, 1000)}, float64(i))
				default:
					s.Deregister(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Len(), len(s.Objects()); got != want {
		t.Errorf("Len() = %d but Objects() has %d", got, want)
	}
}
