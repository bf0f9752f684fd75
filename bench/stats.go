package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least q of the samples
// at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latencies collects per-operation latencies in milliseconds, each
// tagged with the group it was measured in: the sub-window of a socket
// workload's window, the pass of the in-process workload.
type latencies struct {
	ms    []float64
	group []int
}

func (l *latencies) add(d time.Duration, group int) {
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.group = append(l.group, group)
}

func (l *latencies) merge(o latencies) {
	l.ms = append(l.ms, o.ms...)
	l.group = append(l.group, o.group...)
}

func (l latencies) len() int64 { return int64(len(l.ms)) }

// pooled is the q-quantile of every sample.
func (l latencies) pooled(q float64) float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return percentile(s, q)
}

// tail is the median over the groups of each group's q-quantile. On a
// shared box stalls come in bursts; a pooled p99 is whatever the worst
// burst was, while the median group's p99 is the tail a typical second
// of the window showed, which is what repeats from run to run.
func (l latencies) tail(q float64) float64 {
	byGroup := make(map[int][]float64)
	for i, ms := range l.ms {
		byGroup[l.group[i]] = append(byGroup[l.group[i]], ms)
	}
	var tails []float64
	for _, g := range byGroup {
		sort.Float64s(g)
		tails = append(tails, percentile(g, q))
	}
	return median(tails)
}

// subWindows is how many equal slices a measured window is cut into;
// every throughput metric is the median slice, which discards the
// slices a scheduler stall or GC cycle landed in.
const subWindows = 10

// windowCounter counts completed work per sub-window of a measured
// window. Each load goroutine owns one and they are summed afterwards,
// so recording needs no synchronisation.
type windowCounter struct {
	start time.Time
	width time.Duration
	n     [subWindows]float64
}

func newWindowCounter(start time.Time, window time.Duration) *windowCounter {
	return &windowCounter{start: start, width: window / subWindows}
}

// index is the sub-window containing at, clamped to the window.
func (w *windowCounter) index(at time.Time) int {
	return min(max(int(at.Sub(w.start)/w.width), 0), subWindows-1)
}

// add credits amount to the sub-window containing at; work finishing
// outside the window is dropped.
func (w *windowCounter) add(at time.Time, amount float64) {
	if at.Before(w.start) || at.Sub(w.start) >= subWindows*w.width {
		return
	}
	w.n[w.index(at)] += amount
}

// medianRate sums the counters slice by slice and returns the median
// slice's rate per second.
func medianRate(counters ...*windowCounter) float64 {
	var sums [subWindows]float64
	for _, c := range counters {
		for i, v := range c.n {
			sums[i] += v
		}
	}
	return median(sums[:]) / counters[0].width.Seconds()
}

// spread summarises repeated runs of one metric the way the benchmark
// contract does: quartiles by the exclusive method (Python's
// statistics.quantiles(values, n=4)) and the interquartile distance as
// a share of the median.
type spread struct {
	median, q1, q3, rel float64
}

func spreadOf(vals []float64) spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	if n == 1 {
		return spread{median: s[0], q1: s[0], q3: s[0]}
	}
	quant := func(k int) float64 {
		// statistics.quantiles, method "exclusive": the k-th of 4 cut
		// points sits at 1-based position k*(n+1)/4, with the bracketing
		// pair clamped to the data and the fraction taken after clamping, so cut points
		// outside the data extrapolate exactly as Python's do.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	sp := spread{median: quant(2), q1: quant(1), q3: quant(3)}
	if sp.median != 0 {
		sp.rel = (sp.q3 - sp.q1) / math.Abs(sp.median)
	}
	return sp
}
