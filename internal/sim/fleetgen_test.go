package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/tracegen"
)

func TestGenerateFleet(t *testing.T) {
	cfg := mapgen.DefaultCityConfig(3)
	cor, err := mapgen.CityGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetSpec{
		N: 3, Seed: 3, RouteLen: 800, Workers: 2, IDFormat: "car-%02d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}
	svc := locserv.NewSharded(4)
	objs, err := GenerateFleet(cor.Graph, svc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 || svc.Len() != 3 {
		t.Fatalf("objs=%d registered=%d", len(objs), svc.Len())
	}
	for _, o := range objs {
		if o.Truth == nil || o.Truth.Len() == 0 || o.Source == nil {
			t.Fatalf("%s not fully generated", o.ID)
		}
	}
	res, err := (&Fleet{Service: svc, Objects: objs, Workers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Error("fleet consumed no samples")
	}

	// Generation is deterministic regardless of worker count.
	svc2 := locserv.NewSharded(4)
	spec.Workers = 1
	objs2, err := GenerateFleet(cor.Graph, svc2, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		a, b := objs[i].Truth, objs2[i].Truth
		if a.Len() != b.Len() || a.Samples[a.Len()-1].Pos != b.Samples[b.Len()-1].Pos {
			t.Errorf("%s: traces differ across worker counts", objs[i].ID)
		}
	}
}

func TestGenerateFleetRollsBackOnError(t *testing.T) {
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	svc := locserv.NewSharded(4)
	_, err = GenerateFleet(cor.Graph, svc, FleetSpec{
		N: 4, Seed: 3, RouteLen: 800, Workers: 2, IDFormat: "car-%02d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{}, // invalid: US must be positive
	})
	if err == nil {
		t.Fatal("invalid source config should fail")
	}
	if svc.Len() != 0 {
		t.Errorf("registrations not rolled back: %d left", svc.Len())
	}
	// The service is reusable after the failed attempt.
	if _, err := GenerateFleet(cor.Graph, svc, FleetSpec{
		N: 2, Seed: 3, RouteLen: 800, Workers: 2, IDFormat: "car-%02d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
}

// fleetDigest hashes every sample of every trace, in vehicle order, as
// the raw bits of T, X, Y, V and Heading.
func fleetDigest(objs []FleetObject) (samples int, sum uint64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, o := range objs {
		for _, s := range o.Truth.Samples {
			put(s.T)
			put(s.Pos.X)
			put(s.Pos.Y)
			put(s.V)
			put(s.Heading)
		}
		samples += o.Truth.Len()
	}
	return samples, h.Sum64()
}

// TestGenerateFleetGolden pins the traces of a 100-vehicle fleet on
// city 1 (the benchmark's map, route length and dynamics) bit for bit:
// a generator optimisation must leave every sample unchanged.
func TestGenerateFleetGolden(t *testing.T) {
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	objs, err := GenerateFleet(cor.Graph, locserv.New(), FleetSpec{
		N: 100, Seed: 1, RouteLen: 15000, Workers: 2, IDFormat: "car-%04d",
		Params: tracegen.CityCarParams(),
		Source: core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantSamples, wantSum = 135273, 0x734c5b26bae83269
	if n, sum := fleetDigest(objs); n != wantSamples || sum != wantSum {
		t.Errorf("fleet digest = %d samples, %#x; want %d, %#x", n, sum, wantSamples, uint64(wantSum))
	}
}
