// Command drsim regenerates the paper's tables and figures from the
// simulation (the README's "Reproduce the paper" section indexes the
// experiments) and runs the fleet-scale and cluster experiments.
//
// Usage:
//
//	drsim -exp table1
//	drsim -exp fig7 [-csv]          # freeway sweep (figs 7-10: fig8/fig9/fig10)
//	drsim -exp fig3 -svg fig3.svg   # update trail, linear prediction
//	drsim -exp fig6 -svg fig6.svg   # update trail, map-based
//	drsim -exp headline
//	drsim -exp ablate-prob|ablate-route|ablate-wolfson|ablate-um|ablate-nsight|ablate-pred
//	drsim -exp history              # §2 history-based DR convergence
//	drsim -exp disconnect           # Wolfson dtdr across a link outage
//	drsim -exp bandwidth            # bytes/h vs naive 1 Hz reporting
//	drsim -exp fleet -fleet 100 -shards 16 -workers 8
//	                                # parallel fleet vs sharded location store (runFleet)
//	drsim -exp fleet -transport http
//	                                # end-to-end: wire frames over loopback TCP
//	drsim -exp fleet -transport lossy -loss 0.2 -latency 3
//	                                # updates through the netsim lossy link
//	drsim -exp churn [-scale 0.01]  # live-index hot path under full-rate ingest (runChurn)
//
// The cluster drills share one lab (lab.go) and are declared in
// drills.go; each takes -nodes, -replicas and -fleet:
//
//	drsim -exp cluster              # routed ingest + scatter-gather queries (clusterDrill)
//	drsim -exp failover             # kill and revive a node mid-fleet (failoverDrill)
//	drsim -exp selfheal             # kill a node, no operator (selfhealDrill)
//	drsim -exp chaos                # join, loss, leave, kill, spike, reweight at once (chaosDrill)
//	drsim -exp fanin                # two fronts, the migrating one dies (faninDrill)
//
// -scale 0.1 shrinks the scenarios for quick runs; the defaults reproduce
// the paper's full trace lengths. The fleet experiment drives -fleet
// vehicles on -workers goroutines against a location store with -shards
// shards and reports ingestion/accuracy/throughput numbers. -transport
// selects how updates reach the store: inproc (loopback, the default),
// lossy (internal/netsim latency/jitter/loss; see -loss, -latency,
// -jitter), or http (binary wire frames POSTed to a real locserv ingest
// endpoint on a loopback TCP listener — the full networked client/server
// path).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/experiments"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/netsim"
	"mapdr/internal/sim"
	"mapdr/internal/stats"
	"mapdr/internal/tracegen"
	"mapdr/internal/viz"
	"mapdr/internal/wire"
)

// expHelp is the -exp flag's usage text. The CI smoke step reads the
// parenthesised drill list out of `drsim -h`, so the dispatch table stays
// the only place the drills are enumerated.
func expHelp() string {
	names := make([]string, len(drills))
	for i, d := range drills {
		names[i] = d.name
	}
	return "experiment id: table1, fig3, fig6, fig7-fig10, headline, ablate-*, history, disconnect, bandwidth, fleet, churn, " +
		"or a cluster drill (" + strings.Join(names, " ") + ")"
}

// fleetExperiments is the -exp dispatch table of the experiments that
// take a fleetConfig: the single-store runs and every cluster drill. Ids
// not in it are run's paper experiments.
func fleetExperiments() map[string]func(cfg fleetConfig, csv bool) error {
	table := map[string]func(fleetConfig, bool) error{"fleet": runFleet, "churn": runChurn}
	for _, d := range drills {
		table[d.name] = func(cfg fleetConfig, csv bool) error { return runDrill(d, cfg, os.Stdout, csv) }
	}
	return table
}

func main() {
	var (
		exp       = flag.String("exp", "table1", expHelp())
		seed      = flag.Int64("seed", 42, "deterministic scenario seed")
		scale     = flag.Float64("scale", 1.0, "scenario scale in (0,1]; 1 = paper scale")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		svg       = flag.String("svg", "", "write an SVG rendering to this path (fig3/fig6)")
		fleetN    = flag.Int("fleet", 50, "vehicles in the fleet experiment")
		nodes     = flag.Int("nodes", 4, "cluster experiment: member node count")
		replicas  = flag.Int("replicas", 0, "cluster/failover: replicas per key range (0 = experiment default)")
		shards    = flag.Int("shards", locserv.DefaultShards, "location-store shards in the fleet experiment")
		workers   = flag.Int("workers", 0, "fleet worker goroutines (0 = all CPUs)")
		transport = flag.String("transport", "inproc", "fleet update transport: inproc, lossy or http")
		loss      = flag.Float64("loss", 0, "lossy transport: per-message loss probability")
		latency   = flag.Float64("latency", 0, "lossy transport: one-way delay, s")
		jitter    = flag.Float64("jitter", 0, "lossy transport: max additional random delay, s")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drsim:", err)
		os.Exit(1)
	}
	if fleetExp, ok := fleetExperiments()[*exp]; ok {
		err = fleetExp(fleetConfig{
			n: *fleetN, nodes: *nodes, replicas: *replicas, shards: *shards, workers: *workers,
			seed: *seed, scale: *scale,
			transport: *transport, loss: *loss, latency: *latency, jitter: *jitter,
		}, *csv)
	} else {
		err = run(*exp, experiments.Options{Seed: *seed, Scale: *scale}, *csv, *svg)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "drsim:", err)
		os.Exit(1)
	}
}

// startProfiles enables CPU profiling and arranges the heap snapshot;
// the returned stop function finishes both so hot-path hunts over any
// experiment need no ad-hoc instrumentation:
//
//	drsim -exp fleet -fleet 10000 -cpuprofile cpu.pprof -memprofile mem.pprof
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle live objects so the snapshot is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// fleetConfig parameterises the fleet-scale experiments: fleet, churn
// and the cluster drills.
type fleetConfig struct {
	n, shards, workers    int
	nodes, replicas       int
	seed                  int64
	scale                 float64
	transport             string
	loss, latency, jitter float64
}

// normalize rejects a scale outside (0,1] and resolves -workers 0 to all
// CPUs.
func (cfg *fleetConfig) normalize() error {
	if cfg.scale <= 0 || cfg.scale > 1 {
		return fmt.Errorf("scale must be in (0,1]")
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// fleetSpec is the city fleet every fleet-scale experiment drives: cars
// on wander routes of 15 km at paper scale, reporting map-based DR at
// u_s = 100 m — the one statement of that bound; assertions about served
// accuracy read it back from here.
func fleetSpec(cfg fleetConfig) sim.FleetSpec {
	return sim.FleetSpec{
		N:        cfg.n,
		Seed:     cfg.seed,
		RouteLen: 15000 * cfg.scale,
		Workers:  cfg.workers,
		IDFormat: "car-%03d",
		Params:   tracegen.CityCarParams(),
		Source:   core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}
}

// runFleet drives a simulated city fleet against a sharded location
// store and reports scale metrics: protocol traffic, server accuracy
// and wall-clock throughput. The update path is selectable: in-process
// loopback, the netsim lossy link, or the full networked stack — wire
// frames POSTed over loopback TCP into the store's HTTP ingest
// endpoint.
func runFleet(cfg fleetConfig, csv bool) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	// Set up the transport before the expensive map/fleet generation so
	// a bad -transport flag fails instantly.
	svc := locserv.NewSharded(cfg.shards)
	var tr wire.Transport
	switch cfg.transport {
	case "inproc", "":
		// nil: Fleet uses the in-process loopback.
	case "lossy":
		tr = wire.NewSimLink(netsim.NewLink(cfg.seed, cfg.latency, cfg.jitter, cfg.loss), svc.Sink(nil))
	case "http":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: locserv.NewNodeService(svc, nil).Handler(), ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		defer hs.Close()
		tr = wire.NewClient("http://"+ln.Addr().String(), nil)
	default:
		return fmt.Errorf("unknown transport %q (inproc, lossy, http)", cfg.transport)
	}

	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(cfg.seed))
	if err != nil {
		return err
	}
	objs, err := sim.GenerateFleet(cor.Graph, svc, fleetSpec(cfg))
	if err != nil {
		return err
	}

	fl := sim.Fleet{Service: svc, Objects: objs, Workers: cfg.workers, Transport: tr}
	startT := time.Now()
	res, err := fl.Run()
	if err != nil {
		return err
	}
	wall := time.Since(startT)
	var updates int64
	for _, n := range res.Updates {
		updates += n
	}
	// "sent bytes" is the encoded record traffic offered to the
	// transport (wire.Stats.BytesSent: id + reason + report per update);
	// the server-side /stats wire_bytes counts applied reports only.
	tb := stats.NewTable("vehicles", "shards", "workers", "transport", "samples", "updates",
		"dropped", "sent bytes", "mean err [m]", "wall [ms]", "samples/s")
	name := cfg.transport
	if name == "" {
		name = "inproc"
	}
	tb.AddRow(cfg.n, svc.Shards(), fl.Workers, name, res.Samples, updates,
		res.Wire.Dropped, res.Wire.BytesSent, res.MeanErr,
		wall.Milliseconds(), float64(res.Samples)/wall.Seconds())
	return emit(tb, csv)
}

func run(exp string, opts experiments.Options, csv bool, svgPath string) error {
	figKinds := map[string]experiments.Kind{
		"fig7":  experiments.Freeway,
		"fig8":  experiments.InterUrban,
		"fig9":  experiments.City,
		"fig10": experiments.Walking,
	}
	switch exp {
	case "table1":
		rows, err := experiments.RunTable1(opts)
		if err != nil {
			return err
		}
		return emit(experiments.Table1Table(rows), csv)

	case "fig7", "fig8", "fig9", "fig10":
		fr, err := experiments.RunFigure(figKinds[exp], opts)
		if err != nil {
			return err
		}
		fmt.Printf("# %s: %v — updates per hour, absolute and relative to distance-based\n", exp, fr.Kind)
		if svgPath != "" {
			if err := writeFigureChart(fr, exp, svgPath); err != nil {
				return err
			}
			fmt.Println("wrote", svgPath)
		}
		return emit(fr.Table(), csv)

	case "fig3", "fig6":
		protocol := "linear-pred"
		if exp == "fig6" {
			protocol = "map-based"
		}
		trail, err := experiments.RunTrail(experiments.Freeway, opts, protocol, 600, 100)
		if err != nil {
			return err
		}
		fmt.Printf("# %s: %s on the first 10 min of the freeway trace at u_s=100 m: %d updates\n",
			exp, protocol, trail.Count)
		sc, err := experiments.Cached(experiments.Freeway, opts)
		if err != nil {
			return err
		}
		if svgPath != "" {
			f, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			defer f.Close()
			scene := viz.Scene{
				Graph:   sc.Graph,
				Truth:   trail.Truth,
				Updates: trail.Updates,
				Title:   fmt.Sprintf("%s: %s, %d updates", exp, protocol, trail.Count),
			}
			if err := scene.WriteSVG(f); err != nil {
				return err
			}
			fmt.Println("wrote", svgPath)
		} else {
			fmt.Println(viz.RenderASCII(nil, trail.Truth, trail.Updates, 100, 30))
		}
		return nil

	case "headline":
		for _, kind := range experiments.Kinds() {
			fr, err := experiments.RunFigure(kind, opts)
			if err != nil {
				return err
			}
			h := experiments.ComputeHeadline(fr)
			fmt.Printf("%-18s linear-vs-distance %5.1f%%  map-vs-linear %5.1f%%  map-vs-distance %5.1f%%  ordering=%v\n",
				fr.Kind, h.MaxLinearVsDistance, h.MaxMapVsLinear, h.MaxMapVsDistance, h.OrderingHoldsEverywhere)
		}
		return nil

	case "ablate-prob":
		ar, err := experiments.AblationTurnProb(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-route":
		ar, err := experiments.AblationKnownRoute(experiments.Freeway, opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-wolfson":
		ar, err := experiments.AblationWolfson(opts)
		if err != nil {
			return err
		}
		if err := emit(ar.Table(), csv); err != nil {
			return err
		}
		fmt.Println("# mean server error vs ground truth [m]:")
		for _, name := range ar.Order {
			fmt.Printf("#   %-5s %v\n", name, ar.SeriesErr[name])
		}
		fmt.Println("# combined Wolfson cost per hour (C_u per message + C_d per m*s):")
		for _, name := range ar.Order {
			fmt.Printf("#   %-5s %v\n", name, ar.SeriesCost[name])
		}
		return nil
	case "ablate-um":
		ar, err := experiments.AblationMatchRadius(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-pred":
		ar, err := experiments.AblationPredictors(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "history":
		hr, err := experiments.RunHistoryLearning(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("trips", "learned-map [upd/h]", "cells")
		for i, k := range hr.Trips {
			tb.AddRow(k, hr.UpdatesPerH[i], hr.Coverage[i])
		}
		if err := emit(tb, csv); err != nil {
			return err
		}
		fmt.Printf("# true-map map-based DR: %.1f upd/h; linear DR (no map): %.1f upd/h\n",
			hr.TrueMap, hr.Linear)
		return nil
	case "bandwidth":
		rows, err := experiments.RunBandwidth(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("scenario", "protocol", "updates/h", "bytes/h", "% of naive 1 Hz")
		for _, r := range rows {
			tb.AddRow(r.Scenario, r.Protocol, r.UpdatesPerH, r.BytesPerH, r.PctOfNaive)
		}
		return emit(tb, csv)
	case "disconnect":
		dr, err := experiments.RunDisconnection(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("policy", "updates", "mean err [m]", "max err [m]")
		for i, p := range dr.Policies {
			tb.AddRow(p, dr.Updates[i], dr.MeanErr[i], dr.MaxErr[i])
		}
		return emit(tb, csv)
	case "ablate-nsight":
		for _, kind := range experiments.Kinds() {
			ar, err := experiments.AblationSightings(kind, opts)
			if err != nil {
				return err
			}
			fmt.Printf("# %v\n", kind)
			if err := emit(ar.Table(), csv); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// writeFigureChart renders the absolute updates-per-hour plot (the left
// panel of the paper's Figs. 7-10) as an SVG line chart.
func writeFigureChart(fr *experiments.FigureResult, exp, path string) error {
	chart := viz.Chart{
		Title:  fmt.Sprintf("%s: %v", exp, fr.Kind),
		XLabel: "accuracy requested on sink, u_s [m]",
		YLabel: "no. of updates/h",
	}
	for pi, name := range fr.Protocols {
		s := viz.ChartSeries{Name: name}
		for _, row := range fr.Rows {
			s.X = append(s.X, row.US)
			s.Y = append(s.Y, row.UpdatesPerH[pi])
		}
		chart.Series = append(chart.Series, s)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return chart.WriteSVG(f)
}

func emit(tb *stats.Table, csv bool) error { return write(os.Stdout, tb, csv) }

func write(w io.Writer, tb *stats.Table, csv bool) error {
	if csv {
		return tb.WriteCSV(w)
	}
	_, err := tb.WriteTo(w)
	return err
}
