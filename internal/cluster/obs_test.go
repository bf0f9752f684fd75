package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// loopbackPair builds a 2-node replicated cluster of in-process
// members, whose every node call is a member-stream frame — so a
// coordinator scrape exercises OpMetrics frames, not method calls.
func loopbackPair(t *testing.T) (*Coordinator, *locserv.NodeService, *locserv.NodeService) {
	t.Helper()
	m1, n1 := linearNode("a", 4)
	m2, n2 := linearNode("b", 4)
	c, err := NewReplicated(0, 2, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	return c, n1, n2
}

// parsePromText validates the Prometheus text exposition minimally but
// strictly — comment shape, sample shape, parseable values, cumulative
// histogram buckets, _count agreeing with the +Inf bucket — and returns
// every sample keyed by its full series name (with labels).
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	lastBucket := make(map[string]float64) // histogram series sans le -> last cumulative
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "TYPE" && f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln+1, f[3])
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		series, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, raw, err)
		}
		samples[series] = v
		if i := strings.Index(series, "_bucket{"); i >= 0 {
			base := series[:i]
			if prev, ok := lastBucket[base]; ok && v < prev {
				t.Fatalf("line %d: bucket counts not cumulative for %s (%v after %v)", ln+1, base, v, prev)
			}
			lastBucket[base] = v
		}
	}
	for base, inf := range lastBucket {
		if cnt, ok := samples[base+"_count"]; ok && cnt != inf {
			t.Fatalf("histogram %s: _count %v != +Inf bucket %v", base, cnt, inf)
		}
	}
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}
	return samples
}

func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePromText(t, string(body))
}

// statsMetrics maps every GET /stats key to the metric it reports. Its
// key set is the /stats schema, unchanged since the index counters
// joined it; the metric names are an oracle independent of the code
// that reads them.
var statsMetrics = map[string]string{
	"objects":                "mapdr_node_objects",
	"shards":                 "mapdr_node_shards",
	"updates_applied":        "mapdr_node_updates_applied_total",
	"wire_bytes":             "mapdr_node_wire_bytes_total",
	"index_cell_moves":       "mapdr_node_index_cell_moves_total",
	"index_bound_recomputes": "mapdr_node_index_bound_recomputes_total",
	"index_cells_visited":    "mapdr_node_index_cells_visited_total",
	"index_ring_expansions":  "mapdr_node_index_ring_expansions_total",
	"index_queries":          "mapdr_node_index_indexed_queries_total",
	"index_scan_fallbacks":   "mapdr_node_index_scan_fallbacks_total",
}

// getStats reads GET /stats and checks its key set is statsMetrics'.
func getStats(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for key := range body {
		if _, ok := statsMetrics[key]; !ok {
			t.Fatalf("GET %s/stats has unknown key %q", base, key)
		}
	}
	if len(body) != len(statsMetrics) {
		t.Fatalf("GET %s/stats has %d keys, want %d: %v", base, len(body), len(statsMetrics), body)
	}
	return body
}

// TestCoordinatorNodeObjectsSum: a coordinator's /metrics reports the
// cluster's object and shard counts — the sums over its nodes, as its
// /stats does — not its largest node's.
func TestCoordinatorNodeObjectsSum(t *testing.T) {
	var members []*Member
	objects := 0
	var nodes []*locserv.NodeService
	for _, name := range []string{"a", "b", "c"} {
		m, node := linearNode(name, 4)
		nodes = append(nodes, node)
		members = append(members, m)
	}
	c, err := NewReplicated(0, 1, members...)
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(t, c, 60)
	for _, node := range nodes {
		if node.Service().Len() == 0 || node.Service().Len() == 60 {
			t.Fatalf("fixture: a node holds %d of 60 objects", node.Service().Len())
		}
		objects += node.Service().Len()
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	metrics, stats := scrape(t, srv.URL), getStats(t, srv.URL)
	if metrics["mapdr_node_objects"] != float64(objects) || stats["objects"] != int64(objects) {
		t.Fatalf("objects: /metrics %v, /stats %d, nodes hold %d", metrics["mapdr_node_objects"], stats["objects"], objects)
	}
	if metrics["mapdr_node_shards"] != 12 || stats["shards"] != 12 {
		t.Fatalf("shards: /metrics %v, /stats %d, want 12", metrics["mapdr_node_shards"], stats["shards"])
	}
}

// TestNodeStatsOneAnswer reads one node's counters through every member
// kind — the member stream in process, plain and fault-injecting, and
// over a socket — and every view: Node.NodeStats, the node's /stats, and
// the /stats and /metrics of a coordinator fronting that member. All
// give one answer, field for field.
func TestNodeStatsOneAnswer(t *testing.T) {
	local, node := linearNode("n", 4)
	faulty, _ := NewFaultyMember("n", node)
	nodeSrv := httptest.NewServer(node.Handler())
	defer nodeSrv.Close()
	socket := NewHTTPMember("n", nodeSrv.URL, nil)
	defer socket.Ingest.(*wire.Stream).Close()
	members := []*Member{local, faulty, socket}

	seeder, err := NewReplicated(0, 1, members[0])
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(t, seeder, 40)
	_ = snapshot(seeder, 40, 5)
	want := node.Service().NodeStats()
	if want.Objects != 40 || want.Shards != 4 || want.WireBytes == 0 || want.IndexedQueries == 0 || want.CellsVisited == 0 {
		t.Fatalf("fixture: counters did not move: %+v", want)
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON map[string]int64
	if err := json.Unmarshal(raw, &wantJSON); err != nil {
		t.Fatal(err)
	}
	if got := getStats(t, nodeSrv.URL); !reflect.DeepEqual(got, wantJSON) {
		t.Fatalf("node /stats %v, want %v", got, wantJSON)
	}

	for i, name := range []string{"local", "faulty in process", "stream over a socket"} {
		t.Run(name, func(t *testing.T) {
			m := members[i]
			if got, err := m.Node.NodeStats(); err != nil || got != want {
				t.Fatalf("Node.NodeStats() = %+v, %v; want %+v", got, err, want)
			}
			c, err := NewReplicated(0, 1, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := nodeStats(c); got != want {
				t.Fatalf("coordinator node stats = %+v, want %+v", got, want)
			}
			srv := httptest.NewServer(Handler(c))
			defer srv.Close()
			stats, metrics := getStats(t, srv.URL), scrape(t, srv.URL)
			if !reflect.DeepEqual(stats, wantJSON) {
				t.Fatalf("coordinator /stats %v, want %v", stats, wantJSON)
			}
			for key, metric := range statsMetrics {
				if float64(stats[key]) != metrics[metric] {
					t.Errorf("coordinator /stats %s = %d, /metrics %s = %v", key, stats[key], metric, metrics[metric])
				}
			}
		})
	}
}

// TestMetricsEndpointsSmoke boots a 2-node wire-codec cluster, drives
// ingest and all three query families, and scrapes /metrics on both
// roles: the node's own exposition, and the coordinator's cluster-wide
// view with member node snapshots fetched over OpMetrics and merged.
func TestMetricsEndpointsSmoke(t *testing.T) {
	c, n1, _ := loopbackPair(t)
	seedCluster(t, c, 40)
	_ = snapshot(c, 40, 5)

	nodeSrv := httptest.NewServer(n1.Handler())
	defer nodeSrv.Close()
	ns := scrape(t, nodeSrv.URL)
	if ns["mapdr_node_objects"] != 40 {
		t.Fatalf("node objects %v, want 40", ns["mapdr_node_objects"])
	}
	for _, series := range []string{
		"mapdr_node_updates_applied_total",
		"mapdr_node_ingest_batch_seconds_count",
		"mapdr_node_query_nearest_seconds_count",
		"mapdr_node_query_within_seconds_count",
		"mapdr_node_query_position_seconds_count",
		"mapdr_node_answer_age_seconds_count",
		"mapdr_node_answer_us_meters_count",
	} {
		if ns[series] <= 0 {
			t.Fatalf("node series %s = %v, want > 0", series, ns[series])
		}
	}

	coordSrv := httptest.NewServer(Handler(c))
	defer coordSrv.Close()
	cs := scrape(t, coordSrv.URL)
	if cs["mapdr_coord_queries_total"] <= 0 {
		t.Fatalf("coordinator queries %v, want > 0", cs["mapdr_coord_queries_total"])
	}
	for _, series := range []string{
		"mapdr_coord_query_nearest_seconds_count",
		"mapdr_coord_query_position_seconds_count",
		`mapdr_member_up{member="a"}`,
		`mapdr_member_up{member="b"}`,
		`mapdr_member_records_routed_total{member="a"}`,
	} {
		if cs[series] <= 0 {
			t.Fatalf("coordinator series %s = %v, want > 0", series, cs[series])
		}
	}
	// Member node metrics arrive over OpMetrics and merge: with both
	// replicas answering every scatter, the cluster-wide nearest count
	// is at least twice one node's (both members served each query).
	if cs["mapdr_node_query_nearest_seconds_count"] < ns["mapdr_node_query_nearest_seconds_count"] {
		t.Fatalf("merged node nearest count %v < single node %v",
			cs["mapdr_node_query_nearest_seconds_count"], ns["mapdr_node_query_nearest_seconds_count"])
	}
	// The paper-native staleness families must survive the merge too.
	if cs["mapdr_node_answer_us_meters_count"] <= 0 {
		t.Fatalf("merged u_s histogram missing: %v", cs["mapdr_node_answer_us_meters_count"])
	}
}

// pagingFleet delivers enough long-id objects, parked far from the
// seeded ones, that a Within over them overflows one response frame on
// every member holding them all, and returns a rect covering them.
func pagingFleet(t *testing.T, c *Coordinator) geo.Rect {
	t.Helper()
	pad := strings.Repeat("x", 990)
	recs := make([]wire.Record, 4500)
	for i := range recs {
		recs[i] = wire.Record{ID: fmt.Sprintf("big-%s-%05d", pad, i), Update: core.Update{
			Reason: core.ReasonInit,
			Report: core.Report{Seq: 1, Pos: geo.Pt(5e5+float64(i%100), 5e5+float64(i/100))},
		}}
	}
	if err := c.Send(0, recs); err != nil {
		t.Fatal(err)
	}
	return geo.Rect{Min: geo.Pt(4e5, 4e5), Max: geo.Pt(6e5, 6e5)}
}

// withinPages counts the response frames a remote Within over r takes
// against node, by following the server's paging cursor directly.
func withinPages(t *testing.T, node *locserv.NodeService, r geo.Rect, at float64) int {
	t.Helper()
	pages, after := 0, ""
	for {
		resp := locserv.ServeQuery(node, wire.QueryRequest{
			Op:   wire.OpWithin,
			MinX: r.Min.X, MinY: r.Min.Y, MaxX: r.Max.X, MaxY: r.Max.Y,
			T: at, After: after,
		})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		pages++
		if resp.Next == "" {
			return pages
		}
		after = resp.Next
	}
}

// TestQueryTracingEndToEnd samples every query, checks tracing does not
// change a single answer bit (it is a property of the one query path,
// not a second path), checks the coordinator ring holds per-hop spans
// (fan-out per member plus the node-side query span that traveled back
// through the wire — one per page of a paged Within), and reads GET
// /trace on both roles.
func TestQueryTracingEndToEnd(t *testing.T) {
	c, n1, _ := loopbackPair(t)
	seedCluster(t, c, 20)
	big := pagingFleet(t, c)
	pages := withinPages(t, n1, big, 5)
	if pages < 2 {
		t.Fatalf("fixture too small: the big Within fits %d frame", pages)
	}
	sweep := func() (*querySnapshot, []locserv.ObjectPos) {
		snap := snapshot(c, 20, 5)
		hits, err := c.WithinE(big, 5)
		if err != nil {
			t.Fatal(err)
		}
		return snap, hits
	}
	untraced, untracedBig := sweep()
	c.SetTraceSampling(1)
	traced, tracedBig := sweep()
	c.SetTraceSampling(0)
	assertSnapshotEqual(t, "sampling 1 vs sampling 0", untraced, traced)
	if len(tracedBig) != 4500 || !reflect.DeepEqual(untracedBig, tracedBig) {
		t.Fatalf("paged Within changed under tracing (%d vs %d hits)", len(tracedBig), len(untracedBig))
	}

	traces := c.TraceRing().Traces(0)
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	// Newest first: the paged Within ran last. Every page of every
	// member's answer must have brought its node_query span home.
	nodeQueries := make(map[string]int)
	for _, s := range traces[0].Spans {
		if s.Stage == "node_query" {
			nodeQueries[s.Member]++
		}
	}
	if traces[0].Op != "within" || nodeQueries["a"] != pages || nodeQueries["b"] != pages {
		t.Fatalf("paged within trace %q: node_query spans %v, want %d per member", traces[0].Op, nodeQueries, pages)
	}
	stages := make(map[string]bool)
	members := make(map[string]bool)
	ops := make(map[string]bool)
	for _, tr := range traces {
		if tr.ID == 0 || tr.Dur <= 0 {
			t.Fatalf("malformed trace %+v", tr)
		}
		ops[tr.Op] = true
		for _, s := range tr.Spans {
			stages[s.Stage] = true
			if s.Member != "" {
				members[s.Member] = true
			}
		}
	}
	if !ops["position"] || !ops["nearest"] || !ops["within"] {
		t.Fatalf("traced ops %v, want all three query families", ops)
	}
	for _, want := range []string{"fanout", "node_query", "merge"} {
		if !stages[want] {
			t.Fatalf("no %q span in any trace; got stages %v", want, stages)
		}
	}
	if !members["a"] || !members["b"] {
		t.Fatalf("fan-out spans missing member attribution: %v", members)
	}

	coordSrv := httptest.NewServer(Handler(c))
	defer coordSrv.Close()
	nodeSrv := httptest.NewServer(n1.Handler())
	defer nodeSrv.Close()
	for _, base := range []string{coordSrv.URL, nodeSrv.URL} {
		resp, err := http.Get(base + "/trace?limit=5")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Traces []obs.Trace `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Traces) == 0 || len(body.Traces[0].Spans) == 0 {
			t.Fatalf("GET /trace on %s: empty traces %+v", base, body)
		}
	}
}

// TestCoordinatorScrapeSkipsDownMember trips one member's breaker and
// checks the scrape stays valid: the down member reports up=0 and
// contributes no node snapshot, and the scrape itself succeeds.
func TestCoordinatorScrapeSkipsDownMember(t *testing.T) {
	c, _, _ := loopbackPair(t)
	seedCluster(t, c, 10)
	if err := c.MarkDown("b", true); err != nil {
		t.Fatal(err)
	}
	snap, err := c.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var up float64 = -1
	for _, ms := range snap.Metrics {
		if ms.Name == "mapdr_member_up" && ms.Labels == `member="b"` {
			up = ms.Value
		}
	}
	if up != 0 {
		t.Fatalf(`mapdr_member_up{member="b"} = %v, want 0`, up)
	}
}

// TestFaultyMemberKeepsTelemetry: fault injection must not cost a
// member the telemetry a coordinator reads from it. A coordinator over
// NewFaultyMembers still merges the nodes' own metrics into its scrape,
// attributes every query family's fan-out hops to members, and gets
// every member's node-side query span back on a traced call.
func TestFaultyMemberKeepsTelemetry(t *testing.T) {
	f := newReplicatedFixture(t, 3, 2)
	seedReplicated(t, f, 30)
	snap, err := f.coord.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var applied float64
	for _, ms := range snap.Metrics {
		if ms.Name == "mapdr_node_updates_applied_total" {
			applied += ms.Value
		}
	}
	if applied <= 0 {
		t.Fatalf("merged mapdr_node_updates_applied_total = %v: member snapshots were dropped", applied)
	}

	f.coord.SetTraceSampling(1)
	_ = snapshot(f.coord, 30, 2)
	f.coord.SetTraceSampling(0)
	attributed := make(map[string]bool)
	for _, tr := range f.coord.TraceRing().Traces(0) {
		for _, s := range tr.Spans {
			if s.Stage == "fanout" && s.Member != "" {
				attributed[tr.Op] = true
			}
		}
	}
	if !attributed["position"] || !attributed["nearest"] || !attributed["within"] {
		t.Fatalf("ops with member-attributed fan-out spans: %v, want all three", attributed)
	}

	f.coord.SetTraceSampling(1)
	f.coord.Nearest(geo.Pt(0, 0), 3, 1)
	f.coord.SetTraceSampling(0)
	nodeSide := make(map[string]bool)
	for _, s := range f.coord.TraceRing().Traces(1)[0].Spans {
		if s.Stage == "node_query" {
			nodeSide[s.Member] = true
		}
	}
	for _, name := range f.names {
		if !nodeSide[name] {
			t.Errorf("traced Nearest has no node_query span from %s (spans from %v)", name, nodeSide)
		}
	}
}
