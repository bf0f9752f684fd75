// Package trace models GPS traces: timestamped position samples produced
// by a positioning sensor at a fixed rate (the paper records DGPS output
// once per second), plus trace statistics, resampling, sensor noise models
// and the n-sighting speed/heading estimator of paper §4.
package trace

import (
	"fmt"
	"math"

	"mapdr/internal/geo"
)

// Sample is one positioning-sensor observation.
type Sample struct {
	T       float64   // seconds since trace start
	Pos     geo.Point // planar position, metres
	V       float64   // speed in m/s (ground truth traces; 0 if unknown)
	Heading float64   // travel heading in radians (ground truth; 0 if unknown)
}

// Trace is a time-ordered sequence of samples.
type Trace struct {
	Name    string
	Samples []Sample
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Samples) }

// Duration returns the time span covered by the trace in seconds.
func (tr *Trace) Duration() float64 {
	if len(tr.Samples) < 2 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].T - tr.Samples[0].T
}

// PathLength returns the summed distance between consecutive samples.
func (tr *Trace) PathLength() float64 {
	var total float64
	for i := 1; i < len(tr.Samples); i++ {
		total += tr.Samples[i-1].Pos.Dist(tr.Samples[i].Pos)
	}
	return total
}

// Bounds returns the bounding rectangle of the trace.
func (tr *Trace) Bounds() geo.Rect {
	b := geo.EmptyRect()
	for _, s := range tr.Samples {
		b = b.ExtendPoint(s.Pos)
	}
	return b
}

// Slice returns the sub-trace with samples in the half-open time interval
// [t0, t1).
func (tr *Trace) Slice(t0, t1 float64) *Trace {
	out := &Trace{Name: tr.Name}
	for _, s := range tr.Samples {
		if s.T >= t0 && s.T < t1 {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// Validate checks time monotonicity and finite coordinates.
func (tr *Trace) Validate() error {
	for i, s := range tr.Samples {
		if !s.Pos.IsFinite() || math.IsNaN(s.T) || math.IsInf(s.T, 0) {
			return fmt.Errorf("trace: sample %d non-finite", i)
		}
		if i > 0 && s.T <= tr.Samples[i-1].T {
			return fmt.Errorf("trace: time not strictly increasing at sample %d", i)
		}
	}
	return nil
}

// Stats summarises a trace like the paper's Table 1.
type Stats struct {
	LengthKm    float64
	DurationH   float64
	AvgSpeedKmh float64 // path length / duration
	MaxSpeedKmh float64 // windowed to damp sensor noise (paper footnote 1)
}

// maxSpeedWindow is the number of seconds over which the maximum speed is
// measured; the paper notes that instantaneous GPS speed is unreliable.
const maxSpeedWindow = 5

// ComputeStats computes the Table 1 characteristics of the trace.
func (tr *Trace) ComputeStats() Stats {
	st := Stats{
		LengthKm:  tr.PathLength() / 1000,
		DurationH: tr.Duration() / 3600,
	}
	if st.DurationH > 0 {
		st.AvgSpeedKmh = st.LengthKm / st.DurationH
	}
	// Max speed over a sliding window of maxSpeedWindow samples.
	for i := maxSpeedWindow; i < len(tr.Samples); i++ {
		a, b := tr.Samples[i-maxSpeedWindow], tr.Samples[i]
		dt := b.T - a.T
		if dt <= 0 {
			continue
		}
		v := a.Pos.Dist(b.Pos) / dt * 3.6
		if v > st.MaxSpeedKmh {
			st.MaxSpeedKmh = v
		}
	}
	return st
}
