package cluster

import (
	"fmt"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// TestRouteScratchZeroAllocs pins the pooled routing path: partitioning
// a steady R=2 batch over warmed scratch performs no allocations — the
// per-member slices, the owners scratch and the partition map are all
// reused across batches.
func TestRouteScratchZeroAllocs(t *testing.T) {
	f := newReplicatedFixture(t, 4, 2)
	seedReplicated(t, f, 64)
	batch := repBatch(256, 2)
	c := f.coord

	scr := routePool.Get().(*routeScratch)
	defer releaseRouteScratch(scr)
	reset := func() {
		for name, part := range scr.parts {
			scr.parts[name] = part[:0]
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Warm the scratch so the backing arrays reach steady-state capacity.
	for i := 0; i < 4; i++ {
		if _, err := c.route(scr, batch); err != nil {
			t.Fatal(err)
		}
		reset()
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := c.route(scr, batch); err != nil {
			t.Fatal(err)
		}
		reset()
	})
	if avg != 0 {
		t.Fatalf("route allocates %.1f objects per warmed batch, want 0", avg)
	}
}

// TestCoordinatorDeliverAllocs pins the routed update path end to end
// — route, the member stream's encode, the in-process member's decode
// and the store's apply — at R=1 and R=2 over four in-process members:
// once warm, a 512-record DeliverRecords costs the same number of
// allocations as a 64-record one.
func TestCoordinatorDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, rf := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", rf), func(t *testing.T) {
			members := make([]*Member, 4)
			for i := range members {
				node := locserv.NewNodeService(locserv.NewSharded(4),
					func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
				members[i] = NewLocalMember(fmt.Sprintf("n%d", i), node)
			}
			coord, err := NewReplicated(0, rf, members...)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]wire.Record, 512)
			for i := range batch {
				batch[i] = wire.Record{ID: fmt.Sprintf("veh-%03d", i), Update: core.Update{
					Reason: core.ReasonDeviation,
					Report: core.Report{Pos: geo.Pt(float64(i)*10, 0), V: 13},
				}}
			}
			seq := uint32(0)
			deliver := func(n int) func() {
				return func() {
					seq++
					for i := range batch[:n] {
						batch[i].Update.Report.Seq = seq
					}
					if applied, err := coord.DeliverRecords(batch[:n]); applied != n || err != nil {
						t.Fatalf("applied %d of %d, err %v", applied, n, err)
					}
				}
			}
			for range 8 {
				deliver(512)()
			}
			small, large := testing.AllocsPerRun(50, deliver(64)), testing.AllocsPerRun(50, deliver(512))
			if large-small > 2 {
				t.Fatalf("a 512-record delivery allocates %.0f objects, a 64-record one %.0f: want a difference <= 2", large, small)
			}
		})
	}
}
