package locserv

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/wire"
)

func linearFactory(ObjectID) core.Predictor { return core.LinearPredictor{} }

// serveNode serves a node's Handler on a loopback socket and returns a
// member stream to it; both close with the test.
func serveNode(t *testing.T, node *NodeService) *wire.Stream {
	t.Helper()
	ts := httptest.NewServer(node.Handler())
	st := wire.NewStream(ts.URL)
	t.Cleanup(func() {
		st.Close()
		ts.Close()
	})
	return st
}

// TestStreamUpdateAllocs pins the socket update path, both ends: once
// warm, a Stream update to a NodeService.Handler costs the same number
// of allocations for a 512-record frame as for a 64-record one — no
// per-record term on the caller's encode, the node's read and decode,
// or the store's apply.
func TestStreamUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	st := serveNode(t, NewNodeService(NewSharded(4), linearFactory))
	batch := make([]wire.Record, 512)
	for i := range batch {
		batch[i] = ingestRecord(fmt.Sprintf("veh-%03d", i), 0, 0, geo.Pt(float64(i)*10, 0))
	}
	seq := uint32(0)
	send := func(n int) func() {
		return func() {
			seq++
			for i := range batch[:n] {
				batch[i].Update.Report.Seq = seq
			}
			if applied, err := st.SendCounted(0, batch[:n]); applied != n || err != nil {
				t.Fatalf("applied %d of %d, err %v", applied, n, err)
			}
		}
	}
	// Every serving worker meets a full frame before counting starts.
	for range 32 {
		send(512)()
	}
	small, large := testing.AllocsPerRun(50, send(64)), testing.AllocsPerRun(50, send(512))
	if large-small > 2 {
		t.Fatalf("a 512-record update allocates %.0f objects, a 64-record one %.0f: want a difference <= 2", large, small)
	}
}

// TestStreamBuffersNeverAlias: four callers share one member stream to
// a node on a real socket, each sending 100 update frames of 1 to 512
// records for ids of its own, so the node's recycled payload buffers
// and worker decoders serve interleaved frames of every size. Were a
// buffer handed back while a frame still read from it, records would
// apply with another frame's bytes; instead the node must end
// bit-identical to a store fed the same records one at a time.
func TestStreamBuffersNeverAlias(t *testing.T) {
	const callers, frames = 4, 100
	node := NewNodeService(NewSharded(4), linearFactory)
	st := serveNode(t, node)
	batches := make([][][]wire.Record, callers)
	for g := range batches {
		ids := make([]string, 512)
		for i := range ids {
			ids[i] = fmt.Sprintf("g%d-%03d", g, i)
		}
		for f := 0; f < frames; f++ {
			size := 1 + (g*frames+f)*37%512
			batch := make([]wire.Record, size)
			for i := range batch {
				batch[i] = wire.Record{ID: ids[i], Update: core.Update{
					Reason: core.ReasonDeviation,
					Report: core.Report{Seq: uint32(f + 1), T: float64(f),
						Pos: geo.Pt(float64(g*1000+i), float64(f*10+i%7)), V: float64(i % 13), Heading: float64(f%5) / 4},
				}}
			}
			batches[g] = append(batches[g], batch)
		}
	}
	var wg sync.WaitGroup
	for g := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f, batch := range batches[g] {
				if applied, err := st.SendCounted(0, batch); applied != len(batch) || err != nil {
					t.Errorf("caller %d frame %d: applied %d of %d, err %v", g, f, applied, len(batch), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The reference sees each frame as the node decoded it (speed and
	// heading cross the codec as f32), one record per call.
	ref := New()
	seen := make(map[ObjectID]bool)
	for g := range batches {
		for _, batch := range batches[g] {
			onWire, _, err := wire.DecodeFrame(wire.AppendFrame(nil, batch))
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range onWire {
				id := ObjectID(rec.ID)
				if !seen[id] {
					seen[id] = true
					if err := ref.Register(id, core.LinearPredictor{}); err != nil {
						t.Fatal(err)
					}
				}
				if err := ref.Apply(id, rec.Update); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s := node.Service()
	if got, want := s.UpdatesApplied(), ref.UpdatesApplied(); got != want {
		t.Fatalf("UpdatesApplied %d, reference %d", got, want)
	}
	if s.Len() != ref.Len() {
		t.Fatalf("%d objects, reference %d", s.Len(), ref.Len())
	}
	for _, id := range ref.Objects() {
		at := float64(frames) + 0.5
		pos, seq, ok := s.PositionSeq(id, at)
		wantPos, wantSeq, wantOK := ref.PositionSeq(id, at)
		if pos != wantPos || seq != wantSeq || ok != wantOK {
			t.Fatalf("%s: (%v, seq %d, %v), reference (%v, seq %d, %v)", id, pos, seq, ok, wantPos, wantSeq, wantOK)
		}
		p, _ := s.Position(id, at)
		if wp, _ := ref.Position(id, at); p != wp {
			t.Fatalf("%s: Position %v, reference %v", id, p, wp)
		}
	}
}
