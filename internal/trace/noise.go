package trace

import (
	"math"
	"math/rand"

	"mapdr/internal/geo"
)

// NoiseModel perturbs ground-truth positions into sensor readings.
type NoiseModel interface {
	// Perturb returns the sensor reading for a true position at time t.
	// Implementations may keep state between calls; calls must be made in
	// time order.
	Perturb(t float64, truth geo.Point) geo.Point
	// Sigma returns the nominal 1-sigma error magnitude in metres, which
	// the protocols use as the sensor uncertainty u_p.
	Sigma() float64
}

// GaussMarkov models temporally correlated GPS error: a first-order
// Gauss-Markov process per axis. This matches real receiver behaviour
// better than white noise — the error wanders slowly rather than jumping,
// which is what makes the n-sighting speed estimator of paper §4 work.
type GaussMarkov struct {
	rng     *rand.Rand
	sigma   float64
	tau     float64 // correlation time constant, seconds
	ex, ey  float64
	lastT   float64
	started bool
}

// NewGaussMarkov returns a correlated noise model with stationary standard
// deviation sigma and correlation time tau seconds.
func NewGaussMarkov(seed int64, sigma, tau float64) *GaussMarkov {
	if tau <= 0 {
		panic("trace: GaussMarkov tau must be positive")
	}
	return &GaussMarkov{rng: rand.New(rand.NewSource(seed)), sigma: sigma, tau: tau}
}

// Perturb implements NoiseModel.
func (g *GaussMarkov) Perturb(t float64, truth geo.Point) geo.Point {
	if !g.started {
		g.started = true
		g.lastT = t
		g.ex = g.rng.NormFloat64() * g.sigma
		g.ey = g.rng.NormFloat64() * g.sigma
	} else {
		dt := t - g.lastT
		if dt < 0 {
			dt = 0
		}
		g.lastT = t
		a := math.Exp(-dt / g.tau)
		q := g.sigma * math.Sqrt(1-a*a)
		g.ex = a*g.ex + q*g.rng.NormFloat64()
		g.ey = a*g.ey + q*g.rng.NormFloat64()
	}
	return geo.Pt(truth.X+g.ex, truth.Y+g.ey)
}

// Sigma implements NoiseModel.
func (g *GaussMarkov) Sigma() float64 { return g.sigma }

// ApplyNoise returns a copy of the trace with every position perturbed by
// the model (in time order).
func ApplyNoise(tr *Trace, m NoiseModel) *Trace {
	out := &Trace{Name: tr.Name, Samples: make([]Sample, len(tr.Samples))}
	for i, s := range tr.Samples {
		out.Samples[i] = Sample{T: s.T, Pos: m.Perturb(s.T, s.Pos)}
	}
	return out
}
