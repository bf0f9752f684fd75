package main

import (
	"os"
	"path/filepath"
	"testing"

	"strings"

	"mapdr/internal/roadmap"
)

func TestRunAllKindsJSON(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"freeway", "interurban", "city", "footpaths"} {
		path := filepath.Join(dir, kind+".json")
		length := 0.0
		if kind == "freeway" || kind == "interurban" {
			length = 10 // keep the test fast
		}
		if err := run(kind, 1, path, formatJSON, length); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := roadmap.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: reading back: %v", kind, err)
		}
		if g.NumLinks() == 0 {
			t.Errorf("%s: empty network", kind)
		}
	}
}

func TestRunUnknownKind(t *testing.T) {
	if err := run("marsbase", 1, "", formatJSON, 0); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestRunGeoJSONOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "city.geojson")
	if err := run("city", 3, path, formatGeoJSON, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "FeatureCollection") {
		t.Error("GeoJSON output missing FeatureCollection")
	}
}
