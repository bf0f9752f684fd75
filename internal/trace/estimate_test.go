package trace

import (
	"math"
	"math/rand"
	"testing"

	"mapdr/internal/geo"
)

func TestEstimatorConstantVelocity(t *testing.T) {
	est := NewEstimator(4)
	var v, h float64
	var ok bool
	for i := 0; i < 10; i++ {
		v, h, ok = est.Add(Sample{T: float64(i), Pos: geo.Pt(0, 5*float64(i))})
	}
	if !ok {
		t.Fatal("estimator not ready")
	}
	if math.Abs(v-5) > 1e-9 {
		t.Errorf("v = %v", v)
	}
	if math.Abs(h-math.Pi/2) > 1e-9 {
		t.Errorf("heading = %v", h)
	}
}

func TestEstimatorWarmup(t *testing.T) {
	est := NewEstimator(4)
	if _, _, ok := est.Add(Sample{T: 0, Pos: geo.Pt(0, 0)}); ok {
		t.Error("single sighting should not produce an estimate")
	}
	if _, _, ok := est.Add(Sample{T: 1, Pos: geo.Pt(1, 0)}); !ok {
		t.Error("two sightings should produce an estimate")
	}
}

func TestEstimatorPanicsOnSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEstimator(1)
}

func TestEstimatorWindowLag(t *testing.T) {
	// A step change in direction reaches the n=2 estimator faster than the
	// n=8 estimator (lag is the cost of the larger window).
	mkTrace := func() []Sample {
		var s []Sample
		for i := 0; i <= 20; i++ {
			p := geo.Pt(float64(i), 0)
			if i > 10 {
				p = geo.Pt(10, float64(i-10))
			}
			s = append(s, Sample{T: float64(i), Pos: p})
		}
		return s
	}
	settle := func(n int) int {
		est := NewEstimator(n)
		for i, s := range mkTrace() {
			_, h, ok := est.Add(s)
			if ok && i > 10 && math.Abs(geo.AngleDiff(h, math.Pi/2)) < 0.01 {
				return i
			}
		}
		return 999
	}
	if settle(2) >= settle(8) {
		t.Errorf("n=2 settles at %d, n=8 at %d; expected faster for n=2", settle(2), settle(8))
	}
}

func TestEstimatorNoiseSuppression(t *testing.T) {
	// With noisy positions at walking speed, the n=8 estimator's speed
	// error is smaller than the n=2 estimator's.
	mk := func() *Trace {
		rng := rand.New(rand.NewSource(11)) // white noise, sigma 3 m per axis
		tr := &Trace{}
		for i := 0; i <= 600; i++ {
			x, y := 1.3*float64(i)+3*rng.NormFloat64(), 3*rng.NormFloat64()
			tr.Samples = append(tr.Samples, Sample{T: float64(i), Pos: geo.Pt(x, y)})
		}
		return tr
	}
	speedErr := func(n int) float64 {
		est := NewEstimator(n)
		var sum float64
		var count int
		for _, s := range mk().Samples {
			v, _, ok := est.Add(s)
			if ok {
				sum += math.Abs(v - 1.3)
				count++
			}
		}
		return sum / float64(count)
	}
	if speedErr(8) >= speedErr(2) {
		t.Errorf("speed error n=8 (%v) should beat n=2 (%v) at walking speed",
			speedErr(8), speedErr(2))
	}
}

// TestEstimatorAddAllocs pins the sighting window: once built, the
// estimator shifts its fixed window in place, so Add allocates nothing —
// neither while the window fills nor once it is full.
func TestEstimatorAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin; skipped under the race detector")
	}
	e := NewEstimator(4)
	k := 0
	// One run adds 100 sightings: AllocsPerRun rounds its mean down, so
	// a per-run batch keeps an occasional regrowth from hiding.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			k++
			e.Add(Sample{T: float64(k), Pos: geo.Pt(3*float64(k), 0)})
		}
	})
	if allocs != 0 {
		t.Errorf("Estimator.Add: %v allocs per 100 sightings, want 0", allocs)
	}
	if v, _, ok := e.Current(); !ok || v != 3 {
		t.Errorf("after the pin the estimate is %v (ok %v), want 3 m/s", v, ok)
	}
}
