package obs

import (
	"sync"
	"sync/atomic"
)

// Span is one timed stage of a traced query, as stored in the ring
// and rendered over /trace. Start is the offset in nanoseconds from
// the enclosing trace's (or hop's) start; Dur is the stage duration.
type Span struct {
	Stage  string `json:"stage"`
	Member string `json:"member,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// Trace is one sampled query decomposed into per-hop spans.
type Trace struct {
	ID    uint64  `json:"id"`
	Op    string  `json:"op"`
	T     float64 `json:"t,omitempty"` // simulation clock at trace time
	Dur   int64   `json:"dur_ns"`
	Spans []Span  `json:"spans"`
}

// TraceRing is a bounded in-memory buffer of recent traces. Only
// sampled (traced) queries touch it, so a mutex is fine: the untraced
// hot path never takes it.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	pos  int
	full bool
	ids  atomic.Uint64
}

// NewTraceRing returns a ring holding the last capacity traces.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]Trace, capacity)}
}

// NextID mints a process-unique non-zero trace ID.
func (r *TraceRing) NextID() uint64 { return r.ids.Add(1) }

// Add records a completed trace, evicting the oldest when full.
func (r *TraceRing) Add(t Trace) {
	r.mu.Lock()
	r.buf[r.pos] = t
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Traces returns up to limit traces, newest first (limit <= 0 means
// all retained).
func (r *TraceRing) Traces(limit int) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.pos
	if r.full {
		n = len(r.buf)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Trace, 0, limit)
	for i := 0; i < limit; i++ {
		idx := (r.pos - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Sampler decides which queries get traced: 1 in every N, 0 disables
// tracing entirely. The decision is one atomic add — no allocation,
// no lock — so an untraced query pays a few nanoseconds.
type Sampler struct {
	every atomic.Int64
	tick  atomic.Int64
}

// SetEvery sets the sampling period: 0 disables, 1 traces everything,
// n traces one query in n.
func (s *Sampler) SetEvery(n int64) { s.every.Store(n) }

// Sample reports whether this query should be traced.
func (s *Sampler) Sample() bool {
	e := s.every.Load()
	if e <= 0 {
		return false
	}
	if e == 1 {
		return true
	}
	return s.tick.Add(1)%e == 0
}
