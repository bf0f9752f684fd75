package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapdr/internal/experiments"
	"mapdr/internal/locserv"
)

var tinyOpts = experiments.Options{Seed: 42, Scale: 0.05}

func TestRunAllExperimentIDs(t *testing.T) {
	// Every experiment id must execute without error at tiny scale.
	ids := []string{
		"table1", "fig7", "fig8", "fig9", "fig10", "headline",
		"ablate-prob", "ablate-route", "ablate-wolfson", "ablate-um",
		"ablate-nsight", "ablate-pred", "history", "disconnect", "bandwidth",
	}
	for _, id := range ids {
		if err := run(id, tinyOpts, false, ""); err != nil {
			t.Errorf("exp %q: %v", id, err)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	if err := run("table1", tinyOpts, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigSVG(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig6.svg")
	if err := run("fig6", tinyOpts, false, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "<circle") {
		t.Error("SVG output missing expected elements")
	}
}

func TestRunFigureChartSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig7.svg")
	if err := run("fig7", tinyOpts, false, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<polyline") {
		t.Error("chart SVG missing series")
	}
}

func TestRunFigASCII(t *testing.T) {
	if err := run("fig3", tinyOpts, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", tinyOpts, false, ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestRunFleetTransports executes the fleet experiment over every
// transport at tiny scale: in-process, the lossy netsim link, and the
// full HTTP loopback-network path.
func TestRunFleetTransports(t *testing.T) {
	base := fleetConfig{n: 3, shards: 4, workers: 2, seed: 42, scale: 0.05}
	for _, tr := range []string{"inproc", "lossy", "http"} {
		cfg := base
		cfg.transport = tr
		if tr == "lossy" {
			cfg.loss = 0.2
			cfg.latency = 1
		}
		if err := runFleet(cfg, true); err != nil {
			t.Errorf("transport %q: %v", tr, err)
		}
	}
	bad := base
	bad.transport = "carrier-pigeon"
	if err := runFleet(bad, true); err == nil {
		t.Error("unknown transport should fail")
	}
}

// TestRunChurn executes the churn experiment at tiny scale: full-rate
// ingest with concurrent readers, the zero-scan-fallback assertion and
// the bit-identical post-quiesce sweep all run for real.
func TestRunChurn(t *testing.T) {
	cfg := fleetConfig{shards: 8, workers: 2, seed: 42, scale: 0.01}
	if err := runChurn(cfg, true); err != nil {
		t.Fatal(err)
	}
}

// TestRunClusterDrills plays every drill of the dispatch table main
// uses at the CI smoke size — each drill's own assertions (demotion,
// steal + resume, bounded staleness, bit-identical convergence) run for
// real — and reads the report back: every phase of every fault drill
// must have answered all of its probe queries. Each drill's config
// validation is then exercised from below.
func TestRunClusterDrills(t *testing.T) {
	base := fleetConfig{n: 30, nodes: 4, replicas: 2, shards: locserv.DefaultShards, seed: 42, scale: 0.1}
	var names []string
	for _, d := range drills {
		names = append(names, d.name)
		t.Run(d.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runDrill(d, base, &out, true); err != nil {
				t.Fatal(err)
			}
			r := csv.NewReader(&out)
			r.Comment = '#'
			r.FieldsPerRecord = -1 // one stream, several tables
			recs, err := r.ReadAll()
			if err != nil {
				t.Fatalf("report is not CSV: %v\n%s", err, out.String())
			}
			phases := 0
			for i, rec := range recs {
				if rec[0] != "phase" {
					continue
				}
				for _, row := range recs[i+1 : i+1+len(d.phases)] {
					if row[0] != d.phases[phases] {
						t.Errorf("phase row %d is %q, want %q", phases, row[0], d.phases[phases])
					}
					if row[1] == "0" || row[1] != row[2] {
						t.Errorf("phase %q: %s queries, %s answered", row[0], row[1], row[2])
					}
					phases++
				}
			}
			if phases != len(d.phases) {
				t.Errorf("report has %d phase rows, want %d", phases, len(d.phases))
			}

			for name, bad := range map[string]func(*fleetConfig){
				"too few nodes": func(c *fleetConfig) { c.nodes = d.minNodes - 1 },
				"R below min":   func(c *fleetConfig) { c.replicas = d.minReplicas - 1 },
				"scale 0":       func(c *fleetConfig) { c.scale = 0 },
			} {
				cfg := base
				bad(&cfg)
				if cfg.replicas == 0 {
					continue // 0 selects the drill's default R, which is valid
				}
				out.Reset()
				if err := runDrill(d, cfg, &out, true); err == nil || out.Len() != 0 {
					t.Errorf("%s: err = %v with %d bytes reported, want a rejection and no output", name, err, out.Len())
				}
			}
		})
	}
	// The CI smoke step cuts the drill ids out of this exact shape.
	if want := "cluster drill (" + strings.Join(names, " ") + ")"; !strings.Contains(expHelp(), want) {
		t.Errorf("-exp help %q does not list %q", expHelp(), want)
	}
}
