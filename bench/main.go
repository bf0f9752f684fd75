// Command bench is the repository's benchmark: four named workloads
// over the real multi-process serving path, a fixed set of end-to-end
// metrics with regression bounds (BENCHMARK.json), and a traced run
// that attributes an operation's time to the layers it crosses. See
// README.md in this directory.
//
// It is driven as
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and prints every metric by name, then one JSON object on the last
// line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics, defined for every workload (the
// benchmark contract wants each run to report all of them). What "op"
// means per workload:
//
//	protocol_city   one simulated second of the 1000-vehicle fleet
//	                (ops_per_s counts samples, as the paper does)
//	ingest_batched  one 512-record frame (ops_per_s counts records)
//	query_static    one query of the 50/25/25 mix
//	mixed_open      one request of either kind, hi step
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"updates_per_obj_h", "1/h"},
	{"wire_bytes_per_obj_h", "B/h"},
	{"mean_err_m", "m"},
}

// perWorkload are the workload's own names for what it measures,
// printed beside the gated metrics but only where they exist.
var perWorkload = []metricDef{
	{"samples_per_s", "1/s"},
	{"updates_per_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"position_p50_ms", "ms"},
	{"nearest_p50_ms", "ms"},
	{"within_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"op_p999_ms", "ms"},
	{"server_cpu_us_per_update", "us"},
	{"server_cpu_us_per_query", "us"},
	{"failed_share", "share"},
	// Counters that must stay 0; a non-zero value fails the run.
	{"spatial.scan_fallbacks", "count"},
	{"cluster.hinted", "count"},
	{"cluster.degraded_queries", "count"},
	{"cluster.query_errors", "count"},
	{"wire.client_errors", "count"},
}

// traceOps are the operation kinds the traced run tells apart.
var traceOps = []string{"update512", "update8", "position", "nearest", "within"}

// perLayer are the single-layer metrics of the traced invocation. A
// layer a workload never enters reports 0 there, which is the bypass
// prediction made visible.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Timed calls into each package's public functions, on this
		// seed's own inputs.
		{"core.source_ns_per_sample", "ns"},
		{"mapmatch.feed_ns_per_sample", "ns"},
		{"core.predict_ns_per_position", "ns"},
		{"wire.frame_encode_ns_per_rec", "ns"},
		{"wire.frame_decode_ns_per_rec", "ns"},
		{"wire.frame_decode_allocs_per_rec", "count"},
		{"wire.bytes_per_rec", "B"},
		{"wire.qreq_codec_ns", "ns"},
		{"wire.qresp_codec_ns_per_hit", "ns"},
		{"cluster.route_ns_per_rec", "ns"},
		{"cluster.send_self_ns_per_rec", "ns"},
		{"cluster.scatter_self_us.position", "us"},
		{"cluster.scatter_self_us.nearest", "us"},
		{"cluster.scatter_self_us.within", "us"},
		{"locserv.apply_ns_per_rec", "ns"},
		{"locserv.apply_allocs_per_rec", "count"},
		{"locserv.position_ns", "ns"},
		{"locserv.nearest_ns", "ns"},
		{"locserv.within_ns", "ns"},
		{"locserv.nearest_allocs", "count"},
		{"locserv.within_allocs", "count"},
		{"locserv.merge_ns_per_hit", "ns"},
		{"locserv.json_ns_per_hit", "ns"},
		// The servers' own exported means and counters, as deltas around
		// the measured window.
		{"locserv.node_position_mean_us", "us"},
		{"locserv.node_nearest_mean_us", "us"},
		{"locserv.node_within_mean_us", "us"},
		{"locserv.node_ingest_batch_mean_us", "us"},
		{"cluster.coord_position_mean_us", "us"},
		{"cluster.coord_nearest_mean_us", "us"},
		{"cluster.coord_within_mean_us", "us"},
		{"cluster.read_repairs", "count"},
		{"spatial.cell_moves_per_kupd", "count"},
		{"spatial.bound_recomputes_per_kupd", "count"},
		{"spatial.cells_visited_per_query", "count"},
		{"spatial.ring_expansions_per_nearest", "count"},
		// /proc and the load generator.
		{"proc.node_cpu_us_per_op", "us"},
		{"proc.coord_cpu_us_per_op", "us"},
		{"proc.node_rss_mb", "MB"},
		{"proc.coord_rss_mb", "MB"},
		{"proc.ctxsw_per_op", "count"},
		{"gen.cpu_share", "share"},
		{"gen.sched_lag_p99_ms", "ms"},
		{"gen.lo_ack_p99_ms", "ms"},
		{"gen.lo_query_p99_ms", "ms"},
		{"gen.over_20ms_share", "share"},
		{"gen.build_s", "s"},
		{"wire.client_retries", "count"},
		{"trace.overhead_share", "share"},
	}
	// Span self times of the traced run, per operation kind.
	for _, row := range []string{"net.client_coord_us", "net.coord_node_us", "trace.coord_self_us", "trace.node_self_us", "trace.client_self_us"} {
		for _, op := range traceOps {
			defs = append(defs, metricDef{row + "." + op, "us"})
		}
	}
	for _, op := range traceOps {
		defs = append(defs, metricDef{"ledger.unattributed_share." + op, "share"})
	}
	return defs
}()

var units = func() map[string]string {
	m := make(map[string]string)
	for _, list := range [][]metricDef{endToEnd, perWorkload, perLayer} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()

// measured is one metric's value and how many samples stand behind it.
type measured struct {
	value float64
	n     int64
}

// result is everything one run of one workload produced.
type result struct {
	workload  string
	metrics   map[string]measured
	attempted int64
	failed    int64
	problems  []string // correctness failures, each fails the run
	notes     []string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]measured)}
}

// set records a metric of the catalogue; an unknown name is a bug in
// the harness.
func (r *result) set(name string, value float64, n int64) {
	if _, ok := units[name]; !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.metrics[name] = measured{value, n}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted/failed tally.
func (r *result) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "== %s\n", r.workload)
	for _, list := range [][]metricDef{endToEnd, perWorkload, perLayer} {
		for _, d := range list {
			if m, ok := r.metrics[d.name]; ok {
				fmt.Fprintf(w, "%-42s %16.6g %-6s n=%d\n", d.name, m.value, d.unit, m.n)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

// summary is the contract's last-line JSON object.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarise selects the metrics the contract wants for this kind of
// run. A gated metric the workload failed to measure is a correctness
// problem; an unmeasured per-layer metric is a layer the workload never
// entered and reads 0.
func (r *result) summarise(traced bool) summary {
	list := endToEnd
	if traced {
		list = perLayer
	}
	s := summary{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range list {
		m, ok := r.metrics[d.name]
		if !ok && !traced {
			r.problem("metric %s was not measured", d.name)
		}
		s.Metrics[d.name] = metricValue{m.value, d.unit}
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		r.problem("no operation was attempted")
	}
	s.Correct = len(r.problems) == 0 && r.failed == 0
	return s
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

var workloads = map[string]func(context.Context, *procGroup, config) (*result, error){
	"protocol_city":  runProtocolCity,
	"ingest_batched": runIngestBatched,
	"query_static":   runQueryStatic,
	"mixed_open":     runMixedOpen,
}

var workloadOrder = []string{"protocol_city", "ingest_batched", "query_static", "mixed_open"}

// findRoot moves to the repository root when started from bench/ (as
// `go run -C bench .` does).
func findRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(dir + "/cmd/locserver"); err == nil {
			return os.Chdir(dir)
		}
	}
	return fmt.Errorf("cmd/locserver not found: run from the repository root")
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: protocol_city, ingest_batched, query_static, mixed_open or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1: the traced run, reporting the per-layer metrics; 0: the timed run, reporting the end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "calibration: run each workload this many times on consecutive seeds and print per-metric quartiles and spread")
		smoke    = flag.Bool("smoke", false, "pre-merge check: all four workloads, timed and traced, with 1 s windows")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		return 2
	}
	if err := findRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := workloadOrder
	if *workload != "all" {
		if _, ok := workloads[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}

	// Children die with the harness on every path: the deferred stopAll
	// covers returns and panics, the signal context the interrupts.
	procs := &procGroup{}
	defer procs.stopAll()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	modes := []bool{*trace == 1}
	if *smoke {
		*seconds, modes = 1, []bool{false, true}
	}
	ok := true
	for _, name := range names {
		for _, traced := range modes {
			cfg := config{workload: name, seed: *seed, seconds: *seconds, traced: traced}
			var good bool
			if *repeat > 1 {
				good = calibrate(ctx, procs, cfg, *repeat)
			} else {
				good = runOnce(ctx, procs, cfg) != nil
			}
			ok = ok && good
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "bench: interrupted")
				return 1
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one workload, prints its report and JSON line, and
// returns the result, or nil if the run failed or was incorrect.
func runOnce(ctx context.Context, procs *procGroup, cfg config) *result {
	start := time.Now()
	res, err := workloads[cfg.workload](ctx, procs, cfg)
	procs.stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return nil
	}
	sum := res.summarise(cfg.traced)
	res.print(os.Stdout)
	fmt.Printf("(%s seed %d: %.1f s wall)\n", cfg.workload, cfg.seed, time.Since(start).Seconds())
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return nil
	}
	return res
}
