package trace

import (
	"math"
	"testing"

	"mapdr/internal/geo"
)

// constantSpeedTrace builds a trace moving east at v m/s for n seconds.
func constantSpeedTrace(v float64, n int) *Trace {
	tr := &Trace{Name: "const"}
	for i := 0; i <= n; i++ {
		tr.Samples = append(tr.Samples, Sample{
			T: float64(i), Pos: geo.Pt(v*float64(i), 0), V: v, Heading: 0,
		})
	}
	return tr
}

func TestTraceBasics(t *testing.T) {
	tr := constantSpeedTrace(10, 100)
	if tr.Len() != 101 {
		t.Errorf("Len = %d", tr.Len())
	}
	if d := tr.Duration(); d != 100 {
		t.Errorf("Duration = %v", d)
	}
	if l := tr.PathLength(); math.Abs(l-1000) > 1e-9 {
		t.Errorf("PathLength = %v", l)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	b := tr.Bounds()
	if b.Min != geo.Pt(0, 0) || b.Max != geo.Pt(1000, 0) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestTraceEmpty(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.PathLength() != 0 {
		t.Error("empty trace should have zero duration/length")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate empty: %v", err)
	}
	st := tr.ComputeStats()
	if st.LengthKm != 0 || st.AvgSpeedKmh != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTraceValidateErrors(t *testing.T) {
	tr := &Trace{Samples: []Sample{
		{T: 0, Pos: geo.Pt(0, 0)},
		{T: 0, Pos: geo.Pt(1, 0)}, // non-increasing time
	}}
	if err := tr.Validate(); err == nil {
		t.Error("expected monotonicity error")
	}
	tr = &Trace{Samples: []Sample{{T: 0, Pos: geo.Pt(math.NaN(), 0)}}}
	if err := tr.Validate(); err == nil {
		t.Error("expected NaN error")
	}
}

func TestTraceSlice(t *testing.T) {
	tr := constantSpeedTrace(1, 100)
	sub := tr.Slice(10, 20)
	if sub.Len() != 10 {
		t.Errorf("Slice len = %d", sub.Len())
	}
	if sub.Samples[0].T != 10 || sub.Samples[9].T != 19 {
		t.Errorf("Slice range [%v, %v]", sub.Samples[0].T, sub.Samples[9].T)
	}
}

func TestComputeStats(t *testing.T) {
	// 30 m/s for 3600 s = 108 km in 1 h.
	tr := constantSpeedTrace(30, 3600)
	st := tr.ComputeStats()
	if math.Abs(st.LengthKm-108) > 0.1 {
		t.Errorf("LengthKm = %v", st.LengthKm)
	}
	if math.Abs(st.DurationH-1) > 1e-9 {
		t.Errorf("DurationH = %v", st.DurationH)
	}
	if math.Abs(st.AvgSpeedKmh-108) > 0.2 {
		t.Errorf("AvgSpeedKmh = %v", st.AvgSpeedKmh)
	}
	if math.Abs(st.MaxSpeedKmh-108) > 0.5 {
		t.Errorf("MaxSpeedKmh = %v", st.MaxSpeedKmh)
	}
}
