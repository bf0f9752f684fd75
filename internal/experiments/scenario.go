// Package experiments defines the paper's evaluation scenarios and the
// runners that regenerate each table and figure (the README's "Reproduce
// the paper" section and cmd/drsim's package comment index them).
package experiments

import (
	"fmt"
	"sync"

	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/trace"
	"mapdr/internal/tracegen"
)

// Kind selects one of the four movement characteristics of Table 1.
type Kind uint8

// Scenario kinds.
const (
	Freeway Kind = iota
	InterUrban
	City
	Walking
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Freeway:
		return "car, freeway"
	case InterUrban:
		return "car, inter-urban"
	case City:
		return "car, city traffic"
	case Walking:
		return "walking person"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds lists all scenarios in Table 1 order.
func Kinds() []Kind { return []Kind{Freeway, InterUrban, City, Walking} }

// Scenario bundles everything one experiment run needs.
type Scenario struct {
	Kind   Kind
	Graph  *roadmap.Graph
	Route  *roadmap.Route // the route actually driven
	Truth  *trace.Trace   // ground-truth positions at 1 Hz
	Sensor *trace.Trace   // DGPS-like noisy positions at 1 Hz
	// Sightings is the paper's optimal n for this movement class (§4).
	Sightings int
	// UP is the assumed sensor uncertainty u_p in metres.
	UP float64
}

// sensor noise parameters: the paper's DGPS receiver has 2-5 m accuracy;
// a Gauss-Markov process with sigma 3 m and tau 30 s matches that band.
const (
	noiseSigma = 3.0
	noiseTau   = 30.0
	sensorUP   = 5.0
)

// Options tunes scenario construction.
type Options struct {
	Seed int64
	// Scale shrinks the scenario (route length multiplier in (0, 1]) to
	// speed up tests and benchmarks. 0 means full paper scale.
	Scale float64
}

// Build constructs a scenario. Everything is deterministic in the seed.
func Build(kind Kind, opts Options) (*Scenario, error) {
	scale := opts.Scale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	switch kind {
	case Freeway:
		return buildFreeway(opts.Seed, scale)
	case InterUrban:
		return buildInterUrban(opts.Seed, scale)
	case City:
		return buildCity(opts.Seed, scale)
	case Walking:
		return buildWalking(opts.Seed, scale)
	default:
		return nil, fmt.Errorf("experiments: unknown kind %d", kind)
	}
}

func buildFreeway(seed int64, scale float64) (*Scenario, error) {
	cfg := mapgen.DefaultFreewayConfig(seed)
	cfg.LengthKm *= scale // paper: 163 km
	cor, err := mapgen.Freeway(cfg)
	if err != nil {
		return nil, err
	}
	route, err := tracegen.CorridorRoute(cor.Graph, cor.Main)
	if err != nil {
		return nil, err
	}
	p := tracegen.CarParams()
	p.SpeedFactor = 0.85 // paper avg 103 km/h on a 130 km/h road
	res, err := tracegen.DriveRoute(cor.Graph, route, p, seed+1)
	if err != nil {
		return nil, err
	}
	return finishScenario(Freeway, cor.Graph, res, 2, seed)
}

func buildInterUrban(seed int64, scale float64) (*Scenario, error) {
	cfg := mapgen.DefaultInterUrbanConfig(seed)
	cfg.LengthKm *= scale // paper: 99 km
	cor, err := mapgen.InterUrban(cfg)
	if err != nil {
		return nil, err
	}
	route, err := tracegen.CorridorRoute(cor.Graph, cor.Main)
	if err != nil {
		return nil, err
	}
	p := tracegen.CarParams()
	p.SpeedFactor = 0.8 // paper avg 60 km/h
	p.StopRate = 1.0 / 600
	res, err := tracegen.DriveRoute(cor.Graph, route, p, seed+1)
	if err != nil {
		return nil, err
	}
	return finishScenario(InterUrban, cor.Graph, res, 4, seed)
}

func buildCity(seed int64, scale float64) (*Scenario, error) {
	cfg := mapgen.DefaultCityConfig(seed)
	cor, err := mapgen.CityGrid(cfg)
	if err != nil {
		return nil, err
	}
	// Paper: 89 km of driving in 2:25 h at 34 km/h average.
	routeLen := 89e3 * scale
	pol := tracegen.DefaultWanderPolicy()
	start := roadmap.NodeID(int(seed) % cor.Graph.NumNodes())
	if start < 0 {
		start = 0
	}
	route, err := tracegen.Wander(cor.Graph, seed+2, start, routeLen, pol)
	if err != nil {
		return nil, err
	}
	p := tracegen.CityCarParams()
	p.SpeedFactor = 0.9
	res, err := tracegen.DriveRoute(cor.Graph, route, p, seed+1)
	if err != nil {
		return nil, err
	}
	return finishScenario(City, cor.Graph, res, 4, seed)
}

func buildWalking(seed int64, scale float64) (*Scenario, error) {
	cfg := mapgen.DefaultFootpathConfig(seed)
	cor, err := mapgen.FootpathWeb(cfg)
	if err != nil {
		return nil, err
	}
	routeLen := 10e3 * scale // paper: 10 km in 2:08 h
	pol := tracegen.DefaultWanderPolicy()
	pol.StraightBias = 0.35 // walkers turn more readily than drivers
	start := roadmap.NodeID(int(seed+3) % cor.Graph.NumNodes())
	if start < 0 {
		start = 0
	}
	route, err := tracegen.Wander(cor.Graph, seed+2, start, routeLen, pol)
	if err != nil {
		return nil, err
	}
	res, err := tracegen.DriveRoute(cor.Graph, route, tracegen.PedestrianParams(), seed+1)
	if err != nil {
		return nil, err
	}
	return finishScenario(Walking, cor.Graph, res, 8, seed)
}

func finishScenario(kind Kind, g *roadmap.Graph, res *tracegen.DriveResult, sightings int, seed int64) (*Scenario, error) {
	sensor := trace.ApplyNoise(res.Trace, trace.NewGaussMarkov(seed+7, noiseSigma, noiseTau))
	return &Scenario{
		Kind:      kind,
		Graph:     g,
		Route:     res.Route,
		Truth:     res.Trace,
		Sensor:    sensor,
		Sightings: sightings,
		UP:        sensorUP,
	}, nil
}

// scenario cache: figure runners and benchmarks reuse built scenarios.
var (
	cacheMu sync.Mutex
	cache   = map[string]*Scenario{}
)

// Cached returns a cached scenario, building it on first use.
func Cached(kind Kind, opts Options) (*Scenario, error) {
	key := fmt.Sprintf("%d/%d/%v", kind, opts.Seed, opts.Scale)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if sc, ok := cache[key]; ok {
		return sc, nil
	}
	sc, err := Build(kind, opts)
	if err != nil {
		return nil, err
	}
	cache[key] = sc
	return sc, nil
}

// USValues returns the paper's u_s sweep for a scenario kind: 20-500 m for
// cars, 20-250 m for the walking person (§4).
func USValues(kind Kind) []float64 {
	if kind == Walking {
		return []float64{20, 50, 100, 150, 200, 250}
	}
	return []float64{20, 50, 100, 150, 200, 250, 300, 400, 500}
}
