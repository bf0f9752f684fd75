// Package stats provides the small statistics toolkit used by the
// simulation harness: streaming moments, quantiles and simple tabular
// output.
package stats

import (
	"math"
	"sort"
)

// Welford accumulates count, mean, variance, min and max of a stream of
// observations in a single pass (Welford's online algorithm). The zero
// value is ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (Chan et al. parallel update).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Sample collects observations for exact quantile queries. Use for sample
// counts up to a few million; the simulator produces one observation per
// simulated second, well within that.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Quantile returns the q-quantile (q in [0,1]) using linear interpolation
// between order statistics. Returns NaN when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the sample mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (NaN when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
