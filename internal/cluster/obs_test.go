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

// loopbackPair builds a 2-node replicated cluster whose members
// round-trip every node call through the wire query codec — so a
// coordinator scrape exercises OpMetrics frames, not method calls.
func loopbackPair(t *testing.T) (*Coordinator, *locserv.NodeService, *locserv.NodeService) {
	t.Helper()
	_, n1 := linearNode("a", 4)
	_, n2 := linearNode("b", 4)
	c, err := NewReplicated(0, 2, NewLoopbackMember("a", n1), NewLoopbackMember("b", n2))
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
	m := c.members["b"]
	m.down.Store(true)
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

// TestFaultyMemberKeepsTelemetry: a fault-injecting wrapper must not
// drop the optional capabilities a coordinator probes its members for.
// A coordinator over NewFaultyMembers still merges the nodes' own
// metrics into its scrape and attributes every query family's fan-out
// hops to members; and a wrapper around a wire-reached node forwards
// the trace binding, so the node-side spans still come home.
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

	_, node := linearNode("w", 4)
	wired := NewLoopbackMember("w", node)
	wired.Node = faultyNode{n: wired.Node, inj: &FaultInjector{}}
	c, err := New(0, wired)
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(t, c, 5)
	c.SetTraceSampling(1)
	c.Nearest(geo.Pt(0, 0), 3, 1)
	nodeSide := false
	for _, s := range c.TraceRing().Traces(1)[0].Spans {
		nodeSide = nodeSide || (s.Stage == "node_query" && s.Member == "w")
	}
	if !nodeSide {
		t.Fatal("trace binding not forwarded through the wrapper: no node_query span")
	}
}
