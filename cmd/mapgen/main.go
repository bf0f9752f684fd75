// Command mapgen generates synthetic road networks and writes them as
// JSON or GeoJSON.
//
// Usage:
//
//	mapgen -kind freeway -seed 1 -out map.json
//	mapgen -kind city -geojson -out map.geojson
package main

import (
	"flag"
	"fmt"
	"os"

	"mapdr/internal/geo"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
)

func main() {
	var (
		kind    = flag.String("kind", "city", "network kind: freeway, interurban, city, footpaths")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output path (default stdout)")
		geojson = flag.Bool("geojson", false, "write GeoJSON (WGS84, Stuttgart-centred) instead of JSON")
		length  = flag.Float64("length", 0, "corridor length km (freeway/interurban; 0 = default)")
	)
	flag.Parse()
	format := formatJSON
	if *geojson {
		format = formatGeoJSON
	}
	if err := run(*kind, *seed, *out, format, *length); err != nil {
		fmt.Fprintln(os.Stderr, "mapgen:", err)
		os.Exit(1)
	}
}

// output formats.
const (
	formatJSON = iota
	formatGeoJSON
)

func run(kind string, seed int64, out string, format int, length float64) error {
	var (
		cor *mapgen.Corridor
		err error
	)
	switch kind {
	case "freeway":
		cfg := mapgen.DefaultFreewayConfig(seed)
		if length > 0 {
			cfg.LengthKm = length
		}
		cor, err = mapgen.Freeway(cfg)
	case "interurban":
		cfg := mapgen.DefaultInterUrbanConfig(seed)
		if length > 0 {
			cfg.LengthKm = length
		}
		cor, err = mapgen.InterUrban(cfg)
	case "city":
		cor, err = mapgen.CityGrid(mapgen.DefaultCityConfig(seed))
	case "footpaths":
		cor, err = mapgen.FootpathWeb(mapgen.DefaultFootpathConfig(seed))
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	st := cor.Graph.ComputeStats()
	fmt.Fprintf(os.Stderr, "generated %s: %d nodes, %d links, %.1f km, %d signals\n",
		kind, st.Nodes, st.Links, st.TotalLengthKm, st.Signals)
	switch format {
	case formatGeoJSON:
		proj := geo.NewProjection(geo.LatLon{Lat: 48.7758, Lon: 9.1829})
		return roadmap.WriteGeoJSON(w, cor.Graph, proj)
	default:
		return roadmap.WriteJSON(w, cor.Graph)
	}
}
