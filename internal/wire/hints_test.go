package wire

import (
	"fmt"
	"sync"
	"testing"

	"mapdr/internal/core"
)

func hintRec(id string, seq uint32) Record {
	return Record{ID: id, Update: core.Update{Reason: core.ReasonDeviation, Report: core.Report{Seq: seq}}}
}

func TestHintBufferCoalescesOnFreshestSeq(t *testing.T) {
	h := NewHintBuffer(0)
	h.AddAt(0, []Record{hintRec("a", 1), hintRec("b", 5), hintRec("a", 3)})
	// A stale re-add must not regress the buffered record.
	h.AddAt(0, []Record{hintRec("a", 2)})
	if h.Len() != 2 {
		t.Fatalf("len %d, want 2", h.Len())
	}
	out := h.Drain()
	if len(out) != 2 || out[0].ID != "a" || out[1].ID != "b" {
		t.Fatalf("drain %v", out)
	}
	if out[0].Update.Report.Seq != 3 || out[1].Update.Report.Seq != 5 {
		t.Fatalf("drained seqs %d/%d, want 3/5", out[0].Update.Report.Seq, out[1].Update.Report.Seq)
	}
	if h.Len() != 0 {
		t.Fatal("drain did not clear the buffer")
	}
	if again := h.Drain(); again != nil {
		t.Fatalf("second drain returned %v", again)
	}
	st := h.Stats()
	if st.Hinted != 4 || st.Coalesced != 2 || st.Drained != 2 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHintBufferCapacity(t *testing.T) {
	h := NewHintBuffer(3)
	for i := 0; i < 10; i++ {
		h.AddAt(0, []Record{hintRec(fmt.Sprintf("obj-%02d", i), 1)})
	}
	if h.Len() != 3 {
		t.Fatalf("len %d, want capacity 3", h.Len())
	}
	// Fresher hints for already-buffered objects still land at capacity.
	h.AddAt(0, []Record{hintRec("obj-00", 9)})
	if got := h.Drain()[0].Update.Report.Seq; got != 9 {
		t.Fatalf("capacity blocked a coalescing update: seq %d", got)
	}
	if st := h.Stats(); st.Dropped != 7 {
		t.Fatalf("dropped %d, want 7", st.Dropped)
	}
}

// TestHintBufferReaddAtCapacity pins the bug the cluster's drainHints
// used to have: a failed replay re-adding through AddAt loses records to
// a buffer that refilled mid-drain. Readd is capacity-exempt.
func TestHintBufferReaddAtCapacity(t *testing.T) {
	h := NewHintBuffer(3)
	h.AddAt(0, []Record{hintRec("a", 1), hintRec("b", 1), hintRec("c", 1)})
	drained := h.Drain()
	// The buffer refills to capacity while the replay is in flight.
	h.AddAt(0, []Record{hintRec("x", 1), hintRec("y", 1), hintRec("z", 1)})
	if h.Len() != 3 {
		t.Fatalf("len %d, want 3", h.Len())
	}
	// The replay fails; every drained record must survive the re-add
	// even though the buffer is full.
	if got := h.Readd(drained); got != 3 {
		t.Fatalf("readd buffered %d, want 3", got)
	}
	if h.Len() != 6 {
		t.Fatalf("len %d after capacity-exempt readd, want 6", h.Len())
	}
	st := h.Stats()
	if st.Hinted != 6 {
		t.Fatalf("readd double-counted Hinted: %d, want 6", st.Hinted)
	}
	if st.Drained != 0 {
		t.Fatalf("drained %d after failed replay, want 0 (the drain did not stick)", st.Drained)
	}
	if st.Requeued != 3 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHintBufferReaddAccounting checks the drain-failure bookkeeping:
// Drained nets out re-buffers, Requeued counts them, and a record
// superseded by a fresher hint between Drain and Readd is discarded.
func TestHintBufferReaddAccounting(t *testing.T) {
	h := NewHintBuffer(0)
	h.AddAt(0, []Record{hintRec("a", 1), hintRec("b", 2)})
	drained := h.Drain()
	// A fresher hint for "a" lands while the replay is out.
	h.AddAt(0, []Record{hintRec("a", 9)})
	h.Readd(drained)
	if h.Len() != 2 {
		t.Fatalf("len %d, want 2", h.Len())
	}
	out := h.Drain()
	if out[0].ID != "a" || out[0].Update.Report.Seq != 9 {
		t.Fatalf("stale readd beat a fresher hint: %+v", out[0])
	}
	if out[1].ID != "b" || out[1].Update.Report.Seq != 2 {
		t.Fatalf("readd lost b: %+v", out[1])
	}
	st := h.Stats()
	// 3 offered, 2 requeued; the second drain of 2 sticks on top of the
	// first drain netted to zero.
	if st.Hinted != 3 || st.Requeued != 2 || st.Drained != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHintBufferSinceDeadline checks the demotion-deadline clock:
// AddAt stamps Since on empty→nonempty, Drain clears it, and a failed
// replay's Readd restores the pre-drain value so the deadline never
// resets while the member stays unreachable.
func TestHintBufferSinceDeadline(t *testing.T) {
	h := NewHintBuffer(0)
	if st := h.Stats(); st.HasSince {
		t.Fatalf("empty buffer has a Since: %+v", st)
	}
	h.AddAt(10, []Record{hintRec("a", 1)})
	h.AddAt(20, []Record{hintRec("b", 1)}) // later adds do not move Since
	if st := h.Stats(); !st.HasSince || st.Since != 10 {
		t.Fatalf("stats %+v, want Since 10", st)
	}
	drained := h.Drain()
	if st := h.Stats(); st.HasSince {
		t.Fatalf("drain left Since set: %+v", st)
	}
	h.Readd(drained)
	if st := h.Stats(); !st.HasSince || st.Since != 10 {
		t.Fatalf("failed replay reset the deadline clock: %+v, want Since 10", st)
	}
	// A successful drain followed by fresh adds starts a new deadline.
	h.Drain()
	h.AddAt(30, []Record{hintRec("c", 1)})
	if st := h.Stats(); !st.HasSince || st.Since != 30 {
		t.Fatalf("stats %+v, want fresh Since 30", st)
	}
}

// TestHintBufferDrainWhileAdd interleaves Drain/Readd with concurrent
// Adds and checks the invariant that matters: the freshest record per
// object is never lost, whichever way the interleaving falls.
func TestHintBufferDrainWhileAdd(t *testing.T) {
	h := NewHintBuffer(0)
	const ids, writers = 50, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint32(1); seq <= 20; seq++ {
				for i := 0; i < ids; i++ {
					h.AddAt(float64(seq), []Record{hintRec(fmt.Sprintf("obj-%02d", i), seq)})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // drainer whose replays always fail
		defer wg.Done()
		for n := 0; n < 100; n++ {
			h.Readd(h.Drain())
		}
	}()
	wg.Wait()
	final := h.Drain()
	if len(final) != ids {
		t.Fatalf("%d objects survived, want %d", len(final), ids)
	}
	for _, rec := range final {
		if rec.Update.Report.Seq != 20 {
			t.Fatalf("%s settled at seq %d, want the freshest 20", rec.ID, rec.Update.Report.Seq)
		}
	}
	if st := h.Stats(); st.Dropped != 0 {
		t.Fatalf("unbounded buffer dropped records: %+v", st)
	}
}

func TestHintBufferConcurrent(t *testing.T) {
	h := NewHintBuffer(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.AddAt(0, []Record{hintRec(fmt.Sprintf("obj-%03d", i), uint32(w+1))})
				if i%32 == 0 {
					h.Drain()
				}
			}
		}(w)
	}
	wg.Wait()
	h.Drain()
	st := h.Stats()
	if st.Hinted != 8*200 || st.Buffered != 0 {
		t.Fatalf("stats %+v", st)
	}
}
