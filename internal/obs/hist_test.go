package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the log-linear bucket layout: every index
// maps back to a value range containing exactly the values that index
// to it, and widths keep the 2^-4 relative error bound.
func TestBucketRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		upper := bucketUpper(i)
		if got := bucketIdx(upper - 1); got != i {
			t.Fatalf("bucketIdx(upper-1)=%d for bucket %d (upper %d)", got, i, upper)
		}
		if upper < histClamp {
			if got := bucketIdx(upper); got != i+1 {
				t.Fatalf("bucketIdx(upper)=%d, want %d", got, i+1)
			}
		}
	}
	if bucketUpper(histBuckets-1) != histClamp {
		t.Fatalf("last bucket upper %d, want %d", bucketUpper(histBuckets-1), histClamp)
	}
	// Relative width bound: width/lower <= 2^-histSubBits above the
	// first octave.
	for i := histSubCount; i < histBuckets; i++ {
		upper := bucketUpper(i)
		lower := bucketUpper(i - 1)
		if float64(upper-lower)/float64(lower) > 1.0/histSubCount+1e-12 {
			t.Fatalf("bucket %d width %d at lower %d exceeds error bound", i, upper-lower, lower)
		}
	}
}

// TestQuantileEmpty pins the empty-histogram contract: quantiles and
// sums are all 0, not NaN.
func TestQuantileEmpty(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.Sum() != 0 {
		t.Fatalf("empty Sum = %v, want 0", s.Sum())
	}
}

// TestQuantileSingle: with one observation every quantile lands in
// its bucket, within the pinned 6.25% relative error.
func TestQuantileSingle(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	h.Record(0.125) // 125ms
	s := h.Snapshot()
	for _, q := range []float64{0, 0.01, 0.5, 1} {
		got := s.Quantile(q)
		if got < 0.125 || got > 0.125*(1+1.0/histSubCount) {
			t.Fatalf("Quantile(%v) = %v, want within [0.125, 0.1328]", q, got)
		}
	}
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
}

// TestQuantileErrorBound hammers random values and checks every
// reported quantile against the exact sorted answer.
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram("q", "", TicksSeconds)
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// log-uniform over ~ns..minutes
		v := math.Exp(rng.Float64()*25 - 20)
		vals = append(vals, v)
		h.Record(v)
	}
	s := h.Snapshot()
	sorted := append([]float64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99} {
		exact := sorted[int(math.Ceil(q*float64(len(sorted))))-1]
		got := s.Quantile(q)
		// The estimate is the bucket upper bound: in [exact, exact*(1+1/16)]
		// up to tick granularity.
		if got < exact*(1-1e-9) || got > exact*(1+1.0/histSubCount)+2e-9 {
			t.Fatalf("Quantile(%v) = %v, exact %v: outside pinned error bound", q, got, exact)
		}
	}
}

// TestOverflowBucket: values at or above the 2^40-tick clamp land in
// the overflow bucket and quantiles report the clamp boundary.
func TestOverflowBucket(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	h.Record(30 * 60) // 30 minutes in seconds: ~1.8e12 ns, past 2^40
	h.RecordRaw(histClamp)
	h.RecordRaw(histClamp - 1) // largest in-range tick
	s := h.Snapshot()
	if s.Overflow != 2 {
		t.Fatalf("Overflow = %d, want 2", s.Overflow)
	}
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	want := float64(histClamp) / TicksSeconds
	if got := s.Quantile(0.99); got != want {
		t.Fatalf("overflow Quantile = %v, want clamp %v", got, want)
	}
}

// TestMergeAssociativity: merging shard/node snapshots in any
// grouping yields identical buckets, counts, and quantiles.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hs := make([]*Histogram, 3)
	for i := range hs {
		hs[i] = NewHistogram("q", "", TicksSeconds)
		for j := 0; j < 1000; j++ {
			hs[i].Record(rng.ExpFloat64() / 100)
		}
	}
	// (a+b)+c
	ab := hs[0].Snapshot()
	ab.Merge(hs[1].Snapshot())
	ab.Merge(hs[2].Snapshot())
	// a+(b+c)
	bc := hs[1].Snapshot()
	bc.Merge(hs[2].Snapshot())
	a := hs[0].Snapshot()
	a.Merge(bc)
	if ab.Count != a.Count || ab.SumTicks != a.SumTicks || ab.Overflow != a.Overflow {
		t.Fatalf("merge groupings disagree: %+v vs %+v", ab.Count, a.Count)
	}
	for i := range ab.Buckets {
		if ab.Buckets[i] != a.Buckets[i] {
			t.Fatalf("bucket %d: %d vs %d", i, ab.Buckets[i], a.Buckets[i])
		}
	}
	if ab.Quantile(0.95) != a.Quantile(0.95) {
		t.Fatalf("merged quantiles disagree")
	}
}

// TestConcurrentRecordSnapshot hammers Record from many goroutines
// while snapshots are taken — run under -race this is the data-race
// proof; in any mode it checks no observation is lost once writers
// stop.
func TestConcurrentRecordSnapshot(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	const (
		writers = 8
		perW    = 20000
	)
	var writeWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	scrapeWG.Add(1)
	go func() { // concurrent scraper
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count > writers*perW {
					t.Errorf("snapshot count %d exceeds total writes", s.Count)
					return
				}
				_ = s.Quantile(0.5)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				h.RecordDur(time.Duration(rng.Intn(1e6)))
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	scrapeWG.Wait()
	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("final count %d, want %d", s.Count, writers*perW)
	}
	var sumBuckets uint64
	for _, c := range s.Buckets {
		sumBuckets += c
	}
	if sumBuckets+s.Overflow != s.Count {
		t.Fatalf("buckets %d + overflow %d != count %d", sumBuckets, s.Overflow, s.Count)
	}
}

// TestRecordNoAllocs pins the untraced fast path at zero allocations.
func TestRecordNoAllocs(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	if n := testing.AllocsPerRun(1000, func() { h.RecordDur(123456) }); n != 0 {
		t.Fatalf("RecordDur allocates %v times per call, want 0", n)
	}
	c := &Counter{}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v times per call, want 0", n)
	}
	var smp Sampler
	if n := testing.AllocsPerRun(1000, func() { _ = smp.Sample() }); n != 0 {
		t.Fatalf("Sampler.Sample allocates %v times per call, want 0", n)
	}
}

// TestRecordNegativeAndNaN: garbage inputs clamp to zero instead of
// corrupting buckets.
func TestRecordNegativeAndNaN(t *testing.T) {
	h := NewHistogram("q", "", TicksSeconds)
	h.Record(-5)
	h.Record(math.NaN())
	h.RecordDur(-time.Second)
	s := h.Snapshot()
	if s.Count != 3 || s.Buckets[0] != 3 {
		t.Fatalf("count %d bucket0 %d, want 3/3", s.Count, s.Buckets[0])
	}
}
