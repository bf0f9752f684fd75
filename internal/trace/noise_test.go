package trace

import (
	"math"
	"testing"

	"mapdr/internal/geo"
	"mapdr/internal/stats"
)

func TestGaussMarkovStationaryStd(t *testing.T) {
	m := NewGaussMarkov(2, 4, 30)
	var w stats.Welford
	p := geo.Pt(0, 0)
	for i := 0; i < 60000; i++ {
		q := m.Perturb(float64(i), p)
		w.Add(q.X)
	}
	if math.Abs(w.Std()-4) > 0.5 {
		t.Errorf("stationary std = %v, want ~4", w.Std())
	}
}

func TestGaussMarkovCorrelation(t *testing.T) {
	// Adjacent errors (dt=1, tau=30) must be strongly correlated; errors
	// 300 s apart essentially uncorrelated.
	m := NewGaussMarkov(3, 5, 30)
	p := geo.Pt(0, 0)
	var errs []float64
	for i := 0; i < 30000; i++ {
		errs = append(errs, m.Perturb(float64(i), p).X)
	}
	corr := func(lag int) float64 {
		var sum, sumSq float64
		n := len(errs) - lag
		for i := 0; i < n; i++ {
			sum += errs[i] * errs[i+lag]
			sumSq += errs[i] * errs[i]
		}
		return sum / sumSq
	}
	if c := corr(1); c < 0.9 {
		t.Errorf("lag-1 correlation = %v, want > 0.9", c)
	}
	if c := corr(300); math.Abs(c) > 0.2 {
		t.Errorf("lag-300 correlation = %v, want ~0", c)
	}
}

func TestGaussMarkovPanicsOnBadTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGaussMarkov(1, 5, 0)
}

func TestApplyNoiseDeterminism(t *testing.T) {
	tr := constantSpeedTrace(10, 100)
	a := ApplyNoise(tr, NewGaussMarkov(7, 3, 20))
	b := ApplyNoise(tr, NewGaussMarkov(7, 3, 20))
	for i := range a.Samples {
		if a.Samples[i].Pos != b.Samples[i].Pos {
			t.Fatal("same seed produced different noise")
		}
	}
	c := ApplyNoise(tr, NewGaussMarkov(8, 3, 20))
	same := true
	for i := range a.Samples {
		if a.Samples[i].Pos != c.Samples[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestApplyNoiseBounded(t *testing.T) {
	tr := constantSpeedTrace(10, 500)
	noisy := ApplyNoise(tr, NewGaussMarkov(9, 4, 30))
	for i := range noisy.Samples {
		d := noisy.Samples[i].Pos.Dist(tr.Samples[i].Pos)
		if d > 4*8 { // 8 sigma would be astronomically unlikely
			t.Fatalf("noise excursion %v m", d)
		}
	}
}
