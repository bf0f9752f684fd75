// Package obs is the repo's telemetry core: a registry of atomic
// counters, gauges, and lock-free log-bucketed histograms, a bounded
// trace ring for per-hop query spans, Prometheus text exposition, and
// a compact binary snapshot codec so coordinator fronts can merge the
// histograms of every member they fan out to.
//
// Everything on the record path is allocation-free and lock-free:
// counters and gauges are single atomics, histograms are per-shard
// arrays of atomic buckets. The scrape path (Snapshot, WriteText) is
// the only place that allocates.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// The histogram is log-linear (HDR-style): values are bucketed into
// power-of-two octaves, each octave subdivided into 2^histSubBits
// linear sub-buckets. A recorded value lands in a bucket whose width
// is at most lower/2^histSubBits, so reporting the bucket's upper
// bound overestimates any quantile by a relative error of at most
// 2^-histSubBits = 6.25% — the pinned error bound.
//
// The raw value domain is integer "ticks"; each histogram carries a
// ticksPerUnit scale mapping ticks to its exposed unit (seconds,
// metres, sequence numbers). Latency histograms use 1 tick = 1 ns,
// which makes the domain span ns..minutes: values at or above 2^40
// ticks (~18.3 minutes in ns) land in a dedicated overflow bucket.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // linear sub-buckets per octave
	histMaxExp   = 40               // values clamp to [0, 2^histMaxExp)
	// histBuckets covers [0, 2^histMaxExp): histSubCount unit buckets
	// for values below histSubCount, then histSubCount sub-buckets for
	// each octave 2^histSubBits .. 2^(histMaxExp-1).
	histBuckets = (histMaxExp - histSubBits + 1) * histSubCount
	histClamp   = uint64(1) << histMaxExp

	// histShards spreads the atomic bucket arrays across goroutines to
	// keep concurrent Record calls off the same cache lines. Must be a
	// power of two.
	histShards    = 8
	histShardMask = histShards - 1
)

// Common ticksPerUnit scales.
const (
	TicksSeconds = 1e9 // latency/age histograms: 1 tick = 1 ns
	TicksMeters  = 1e3 // distance histograms: 1 tick = 1 mm
	TicksCount   = 1   // unitless counts (sequence deltas)
)

type histShard struct {
	buckets  [histBuckets]atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Uint64 // raw ticks
	overflow atomic.Uint64
	_        [40]byte // keep the tail counters of adjacent shards apart
}

// Histogram is a lock-free log-bucketed histogram safe for concurrent
// Record and Snapshot. Zero value is not usable; construct through
// NewHistogram or Registry.Histogram.
type Histogram struct {
	name         string
	help         string
	ticksPerUnit float64
	shards       [histShards]histShard
}

// NewHistogram returns a standalone histogram (not attached to any
// registry) with the given ticks-per-exposed-unit scale.
func NewHistogram(name, help string, ticksPerUnit float64) *Histogram {
	if ticksPerUnit <= 0 {
		ticksPerUnit = 1
	}
	return &Histogram{name: name, help: help, ticksPerUnit: ticksPerUnit}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketIdx maps a raw tick value < histClamp to its bucket index.
func bucketIdx(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	top := bits.Len64(v) - 1 // >= histSubBits
	sub := (v >> (uint(top) - histSubBits)) & (histSubCount - 1)
	return (top-histSubBits+1)*histSubCount + int(sub)
}

// bucketUpper is the exclusive upper bound, in ticks, of bucket i.
func bucketUpper(i int) uint64 {
	if i < histSubCount {
		return uint64(i) + 1
	}
	block := i / histSubCount
	sub := uint64(i % histSubCount)
	top := uint(block + histSubBits - 1)
	lower := uint64(1)<<top | sub<<(top-histSubBits)
	return lower + uint64(1)<<(top-histSubBits)
}

// shardHint picks a shard for the calling goroutine. Goroutine stacks
// are disjoint, so the address of a stack variable is a cheap,
// allocation-free proxy for goroutine identity; mixing its middle bits
// spreads goroutines across shards. The conversion to uintptr happens
// immediately, so the variable does not escape.
func shardHint() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)))
	h ^= h >> 17
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// RecordRaw records a value in raw ticks. Lock-free, allocation-free.
func (h *Histogram) RecordRaw(v uint64) {
	s := &h.shards[shardHint()&histShardMask]
	if v >= histClamp {
		s.overflow.Add(1)
	} else {
		s.buckets[bucketIdx(v)].Add(1)
	}
	s.count.Add(1)
	s.sum.Add(v)
}

// Record records a value in the histogram's exposed unit.
func (h *Histogram) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.RecordRaw(uint64(v * h.ticksPerUnit))
}

// RecordDur records a duration; the histogram's scale converts it to
// ticks (TicksSeconds-scaled histograms record exact nanoseconds).
func (h *Histogram) RecordDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.RecordRaw(uint64(float64(d.Nanoseconds()) / 1e9 * h.ticksPerUnit))
}

// HistSnapshot is a point-in-time copy of a histogram, mergeable with
// snapshots of other shards, nodes, or coordinator fronts.
type HistSnapshot struct {
	TicksPerUnit float64
	Count        uint64
	Overflow     uint64 // values >= 2^40 ticks (included in Count)
	SumTicks     uint64
	Buckets      []uint64 // dense, len histBuckets
}

// Snapshot sums the shards into one mergeable snapshot. Concurrent
// Record calls may be partially visible; each bucket is individually
// consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{TicksPerUnit: h.ticksPerUnit, Buckets: make([]uint64, histBuckets)}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
		s.Count += sh.count.Load()
		s.Overflow += sh.overflow.Load()
		s.SumTicks += sh.sum.Load()
	}
	return s
}

// Merge folds o into s (bucket-wise addition — associative and
// commutative, so cross-shard, cross-node, and cross-front merges
// compose in any order). Snapshots must share a scale.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(s.Buckets) == 0 {
		s.Buckets = make([]uint64, histBuckets)
		s.TicksPerUnit = o.TicksPerUnit
	}
	for i := range o.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Overflow += o.Overflow
	s.SumTicks += o.SumTicks
}

// Sum is the total of recorded values in the exposed unit.
func (s HistSnapshot) Sum() float64 {
	if s.TicksPerUnit <= 0 {
		return 0
	}
	return float64(s.SumTicks) / s.TicksPerUnit
}

// Quantile estimates the q-quantile (q in [0,1]) in the exposed unit,
// reporting the upper bound of the bucket holding the rank — an
// overestimate by at most 2^-4 = 6.25% relative error. An empty
// snapshot returns 0; a rank landing in the overflow bucket returns
// the clamp boundary (2^40 ticks), the tightest lower bound known.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || s.TicksPerUnit <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return float64(bucketUpper(i)) / s.TicksPerUnit
		}
	}
	return float64(histClamp) / s.TicksPerUnit
}
