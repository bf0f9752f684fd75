package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and exposition.
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// Counter is a monotonically increasing atomic counter. The zero
// value is usable; registry-created counters are shared by name.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct{ v atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// entry is one registered metric. Exactly one of c/g/fn/h is set.
type entry struct {
	name   string
	help   string
	labels string // rendered inside {...} in exposition; may be ""
	kind   Kind
	c      *Counter
	g      *Gauge
	fn     func() float64 // read at snapshot time (counter or gauge)
	h      *Histogram
}

func (e *entry) key() string { return e.name + "{" + e.labels + "}" }

// Registry is a named collection of metrics. Registration is
// idempotent per (name, kind): re-registering returns the existing
// metric, so independently wired components can share counters.
// Registration takes a lock; the returned metrics are lock-free.
type Registry struct {
	mu    sync.RWMutex
	order []*entry
	byKey map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

func (r *Registry) add(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byKey[e.key()]; ok {
		if have.kind != e.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", e.name))
		}
		return have
	}
	r.order = append(r.order, e)
	r.byKey[e.key()] = e
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.add(&entry{name: name, help: help, kind: KindCounter, c: &Counter{}})
	return e.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.add(&entry{name: name, help: help, kind: KindGauge, g: &Gauge{}})
	return e.g
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — the bridge for pre-existing atomic counters that
// other code still owns.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(&entry{name: name, help: help, kind: KindCounter, fn: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&entry{name: name, help: help, kind: KindGauge, fn: fn})
}

// Histogram returns the named histogram, creating it on first use
// with the given ticks-per-unit scale.
func (r *Registry) Histogram(name, help string, ticksPerUnit float64) *Histogram {
	e := r.add(&entry{name: name, help: help, kind: KindHistogram, h: NewHistogram(name, help, ticksPerUnit)})
	return e.h
}

// MetricSnapshot is one metric's point-in-time value.
type MetricSnapshot struct {
	Name   string
	Help   string
	Labels string // raw label pairs for exposition, e.g. `member="a"`
	Kind   Kind
	Value  float64       // counters and gauges
	Hist   *HistSnapshot // histograms
}

func (m MetricSnapshot) key() string { return m.Name + "{" + m.Labels + "}" }

// Snapshot is a mergeable point-in-time view of a registry (or of a
// hand-assembled metric set).
type Snapshot struct {
	Metrics []MetricSnapshot
}

// Snapshot captures every registered metric; func metrics are
// evaluated now.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	entries := make([]*entry, len(r.order))
	copy(entries, r.order)
	r.mu.RUnlock()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(entries))}
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Help: e.help, Labels: e.labels, Kind: e.kind}
		switch {
		case e.c != nil:
			m.Value = float64(e.c.Load())
		case e.g != nil:
			m.Value = e.g.Load()
		case e.fn != nil:
			m.Value = e.fn()
		case e.h != nil:
			hs := e.h.Snapshot()
			m.Hist = &hs
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s
}

// Add appends a metric to a hand-assembled snapshot.
func (s *Snapshot) Add(m MetricSnapshot) { s.Metrics = append(s.Metrics, m) }

// AddGauge appends a labelled gauge value.
func (s *Snapshot) AddGauge(name, help, labels string, v float64) {
	s.Add(MetricSnapshot{Name: name, Help: help, Labels: labels, Kind: KindGauge, Value: v})
}

// AddCounter appends a labelled counter value.
func (s *Snapshot) AddCounter(name, help, labels string, v int64) {
	s.Add(MetricSnapshot{Name: name, Help: help, Labels: labels, Kind: KindCounter, Value: float64(v)})
}

// Merge folds o into s by (name, labels): counters and gauges sum,
// histograms merge bucket-wise; metrics only present in o are appended.
// This is the coordinator's fan-in operation — member snapshots merged
// into a cluster-wide view, where the only unlabelled gauges that meet
// are per-node sizes (objects, shards) whose cluster value is the sum.
func (s *Snapshot) Merge(o Snapshot) {
	idx := make(map[string]int, len(s.Metrics))
	for i := range s.Metrics {
		idx[s.Metrics[i].key()] = i
	}
	for _, m := range o.Metrics {
		i, ok := idx[m.key()]
		if !ok {
			if m.Hist != nil {
				h := *m.Hist
				h.Buckets = append([]uint64(nil), m.Hist.Buckets...)
				m.Hist = &h
			}
			idx[m.key()] = len(s.Metrics)
			s.Metrics = append(s.Metrics, m)
			continue
		}
		have := &s.Metrics[i]
		if have.Kind != m.Kind {
			continue // kind clash: keep ours
		}
		switch m.Kind {
		case KindCounter, KindGauge:
			have.Value += m.Value
		case KindHistogram:
			if have.Hist != nil && m.Hist != nil {
				have.Hist.Merge(*m.Hist)
			}
		}
	}
}

// Sorted returns the metrics ordered by name (stable for exposition
// and tests); label-variants of one family stay adjacent.
func (s Snapshot) Sorted() []MetricSnapshot {
	out := append([]MetricSnapshot(nil), s.Metrics...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the first metric with the given name.
func (s Snapshot) Find(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}
