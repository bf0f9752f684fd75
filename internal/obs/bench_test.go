package obs

import (
	"testing"
	"time"
)

// BenchmarkObsRecordUntraced prices the untraced fast path: one
// histogram Record plus the sampler check a query pays when tracing is
// off. Its zero allocations are pinned by TestRecordNoAllocs.
func BenchmarkObsRecordUntraced(b *testing.B) {
	h := NewHistogram("bench", "", TicksSeconds)
	var smp Sampler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !smp.Sample() {
			h.RecordDur(time.Duration(i&0xffff) * time.Microsecond)
		}
	}
}

// BenchmarkObsRecordParallel shows shard spreading under contention.
func BenchmarkObsRecordParallel(b *testing.B) {
	h := NewHistogram("bench", "", TicksSeconds)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.RecordDur(time.Duration(i&0xffff) * time.Microsecond)
			i++
		}
	})
}

// BenchmarkSnapshotMerge is the coordinator-side scrape cost: one
// snapshot plus one merge.
func BenchmarkSnapshotMerge(b *testing.B) {
	h := NewHistogram("bench", "", TicksSeconds)
	for i := 0; i < 100000; i++ {
		h.RecordDur(time.Duration(i) * time.Microsecond)
	}
	base := h.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		s.Merge(base)
		_ = s.Quantile(0.99)
	}
}
