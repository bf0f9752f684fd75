package locserv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

func newLinearNode(shards int) *NodeService {
	return NewNodeService(NewSharded(shards),
		func(ObjectID) core.Predictor { return core.LinearPredictor{} })
}

func seedNode(t *testing.T, n *NodeService, count int) {
	t.Helper()
	recs := make([]wire.Record, 0, count)
	for i := 0; i < count; i++ {
		recs = append(recs, wire.Record{
			ID: fmt.Sprintf("obj-%03d", i),
			Update: core.Update{
				Reason: core.ReasonInit,
				Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i)*10, float64(i%7)), V: 3, Heading: 0.5},
			},
		})
	}
	applied, err := n.Deliver(recs) // factory auto-registers
	if err != nil {
		t.Fatal(err)
	}
	if applied != count {
		t.Fatalf("applied %d of %d", applied, count)
	}
}

func TestNodeServiceRegisterUsesFactory(t *testing.T) {
	n := newLinearNode(4)
	if err := n.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a"); err == nil {
		t.Error("duplicate registration accepted")
	}
	if !n.Service().Contains("a") {
		t.Error("factory registration did not land in the store")
	}
	if err := n.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Deregister("ghost"); err != nil {
		t.Errorf("deregistering unknown id: %v", err)
	}

	bare := NewNodeService(NewSharded(2), nil)
	if err := bare.Register("x"); err == nil {
		t.Error("factory-less node accepted a registration")
	}
	reject := NewNodeService(NewSharded(2), func(ObjectID) core.Predictor { return nil })
	if err := reject.Register("x"); err == nil {
		t.Error("nil predictor accepted")
	}
}

// TestServeQueryMatchesDirectCalls proves the query-protocol server
// side answers bit-identically to direct service calls, through the
// full codec (the in-process member stream).
func TestServeQueryMatchesDirectCalls(t *testing.T) {
	n := newLinearNode(4)
	seedNode(t, n, 40)
	lb := wire.NewStreamLoopback(n.StreamServer())

	for _, tt := range []float64{0, 12.5, 100} {
		resp, err := lb.Query(wire.QueryRequest{Op: wire.OpNearest, X: 150, Y: 3, K: 7, T: tt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(FromWireHits(resp.Hits), n.Service().Nearest(geo.Pt(150, 3), 7, tt)) {
			t.Fatalf("nearest@%v differs through the codec", tt)
		}

		resp, err = lb.Query(wire.QueryRequest{
			Op: wire.OpWithin, MinX: 0, MinY: -5, MaxX: 200, MaxY: 10, T: tt,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(FromWireHits(resp.Hits),
			n.Service().Within(geo.Rect{Min: geo.Pt(0, -5), Max: geo.Pt(200, 10)}, tt)) {
			t.Fatalf("within@%v differs through the codec", tt)
		}

		resp, err = lb.Query(wire.QueryRequest{Op: wire.OpPosition, ID: "obj-005", T: tt})
		if err != nil {
			t.Fatal(err)
		}
		want, ok := n.Service().Position("obj-005", tt)
		if resp.Found != ok || geo.Pt(resp.Hits[0].X, resp.Hits[0].Y) != want {
			t.Fatalf("position@%v: %+v want %v %v", tt, resp, want, ok)
		}
	}

	// Unknown object: found=false, no error.
	resp, err := lb.Query(wire.QueryRequest{Op: wire.OpPosition, ID: "nope", T: 0})
	if err != nil || resp.Found {
		t.Fatalf("unknown object: %+v, %v", resp, err)
	}
	// The metrics snapshot carries the full counter set.
	resp, err = lb.Query(wire.QueryRequest{Op: wire.OpMetrics})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.DecodeSnapshot(resp.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if got := NodeStatsOf(snap); got != n.Service().NodeStats() {
		t.Fatalf("stats %+v != %+v", got, n.Service().NodeStats())
	}
	// Register errors arrive in-band.
	if resp, err = lb.Query(wire.QueryRequest{Op: wire.OpRegister, ID: "obj-001"}); err != nil {
		t.Fatal(err)
	} else if resp.Err == "" {
		t.Error("duplicate register produced no in-band error")
	}
}

func TestServiceExportRanges(t *testing.T) {
	n := newLinearNode(4)
	seedNode(t, n, 30)
	if err := n.Register("silent"); err != nil { // registered, never reported
		t.Fatal(err)
	}

	// Whole-ring export: everything, ids sorted.
	recs, ids, err := n.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 || len(ids) != 1 || ids[0] != "silent" {
		t.Fatalf("export all: %d recs, ids %v", len(recs), ids)
	}
	if !sortedRecords(recs) {
		t.Error("exported records not sorted by id")
	}
	for i := range recs {
		if recs[i].Update.Report.Seq != 1 {
			t.Fatalf("export lost the sequence number: %+v", recs[i].Update.Report)
		}
	}

	// A split at an arbitrary boundary partitions the objects exactly.
	const mid = 1 << 63
	recsA, idsA, _ := n.Export(0, mid)
	recsB, idsB, _ := n.Export(mid, 0)
	if len(recsA)+len(recsB) != 30 || len(idsA)+len(idsB) != 1 {
		t.Fatalf("split export: %d+%d recs, %d+%d ids", len(recsA), len(recsB), len(idsA), len(idsB))
	}
	for _, r := range recsA {
		if !wire.InKeyRange(wire.KeyHash(r.ID), 0, mid) {
			t.Fatalf("%s exported outside its range", r.ID)
		}
	}
}

func sortedRecords(recs []wire.Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].ID < recs[i-1].ID {
			return false
		}
	}
	return true
}

// TestNodeMemberStream drives GET /member over real HTTP with the member
// stream: query answers equal direct calls, update frames are acked with
// the node's applied count, a request without the upgrade is refused,
// and each malformed request frame closes the connection.
func TestNodeMemberStream(t *testing.T) {
	n := newLinearNode(4)
	seedNode(t, n, 10)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	s := wire.NewStream(ts.URL)
	defer s.Close()

	resp, err := s.Query(wire.QueryRequest{Op: wire.OpNearest, X: 0, Y: 0, K: 3, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 3 {
		t.Fatalf("hits %v", resp.Hits)
	}
	if !reflect.DeepEqual(FromWireHits(resp.Hits), n.Service().Nearest(geo.Pt(0, 0), 3, 1)) {
		t.Fatal("stream query answer differs from direct call")
	}
	recs := []wire.Record{{ID: "streamed", Update: core.Update{
		Reason: core.ReasonInit, Report: core.Report{Seq: 1, Pos: geo.Pt(5, 5)},
	}}}
	if applied, err := s.SendCounted(0, recs); err != nil || applied != 1 {
		t.Fatalf("update frame: applied %d, %v", applied, err)
	}
	if !n.Service().Contains("streamed") {
		t.Fatal("streamed update did not reach the store")
	}

	// Negative paths: no upgrade, wrong method.
	for _, tc := range []struct {
		method string
		want   int
	}{{http.MethodGet, http.StatusUpgradeRequired}, {http.MethodPost, http.StatusMethodNotAllowed}} {
		req, err := http.NewRequest(tc.method, ts.URL+wire.StreamPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("%s %s without upgrade -> %d, want %d", tc.method, wire.StreamPath, r.StatusCode, tc.want)
		}
	}

	// frame builds a stream frame: len u32 | id u64 | kind u8 | payload.
	frame := func(n uint32, kind byte, payload ...byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, n)
		out = binary.LittleEndian.AppendUint64(out, 1)
		return append(append(out, kind), payload...)
	}
	for name, bad := range map[string][]byte{
		"malformed frame": frame(9+3, wire.StreamQuery, 1, 2, 3),
		"unknown kind":    frame(9+4, 7, 0, 0, 0, 0),
		"oversize":        frame(9+4+wire.MaxFrameBody+1, wire.StreamUpdate),
	} {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
				wire.StreamPath, wire.StreamProtocol); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(nc)
			up, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if up.StatusCode != http.StatusSwitchingProtocols {
				t.Fatalf("upgrade -> %d", up.StatusCode)
			}
			if _, err := nc.Write(bad); err != nil {
				t.Fatal(err)
			}
			if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if b, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("node kept the connection after a %s: read %d, %v", name, b, err)
			}
		})
	}
}

// TestStatsEndpointHealthCounters checks GET /stats carries the
// spatial-index health counters and that they actually move.
func TestStatsEndpointHealthCounters(t *testing.T) {
	s := NewSharded(1)
	// Enough bounded objects in one shard to exercise the live index,
	// plus one unbounded object (added later) to move ScanFallbacks.
	for i := 0; i < 64; i++ {
		id := ObjectID(fmt.Sprintf("obj-%03d", i))
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(id, core.Update{Reason: core.ReasonInit, Report: core.Report{
			Seq: 1, Pos: geo.Pt(float64(i%8)*100, float64(i/8)*100), V: 1,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// A second report far away moves each object across a cell boundary.
	for i := 0; i < 64; i++ {
		id := ObjectID(fmt.Sprintf("obj-%03d", i))
		if err := s.Apply(id, core.Update{Reason: core.ReasonDeviation, Report: core.Report{
			Seq: 2, T: 1, Pos: geo.Pt(float64(i%8)*100+5000, float64(i/8)*100), V: 1,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	r := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(250, 250)}
	for i := 0; i < 20; i++ {
		s.Within(r, 1)
		s.Nearest(geo.Pt(5100, 100), 3, 1)
	}
	// An unbounded-predictor object routes queries to the scan path.
	if err := s.Register("unbounded", &core.SpeedCappedMapPredictor{RaiseToLimit: true}); err != nil {
		t.Fatal(err)
	}
	s.Within(r, 1)
	st := s.NodeStats().IndexStats
	if st.CellMoves == 0 || st.BoundRecomputes == 0 || st.CellsVisited == 0 ||
		st.RingExpansions == 0 || st.IndexedQueries == 0 || st.ScanFallbacks == 0 {
		t.Fatalf("index counters did not move: %+v", st)
	}

	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"objects", "shards", "updates_applied", "wire_bytes",
		"index_cell_moves", "index_bound_recomputes", "index_cells_visited",
		"index_ring_expansions", "index_queries", "index_scan_fallbacks",
	} {
		if _, ok := body[key]; !ok {
			t.Errorf("/stats missing %q: %v", key, body)
		}
	}
	if body["index_cell_moves"] != st.CellMoves || body["index_scan_fallbacks"] != st.ScanFallbacks {
		t.Errorf("/stats counters diverge from IndexStats: %v vs %+v", body, st)
	}
	// index_ring_expansions is the cells k-NN queries took off their
	// frontiers: at least one per query, never more than all cells
	// visited.
	if st.RingExpansions < 20 || st.RingExpansions > st.CellsVisited {
		t.Errorf("ring expansions = %d after 20 k-NN queries with %d cells visited", st.RingExpansions, st.CellsVisited)
	}

	// Evaluated candidates are on /metrics only (no wire change): at
	// least the 3 hits of each k-NN query, far fewer than the 64 objects
	// a scan evaluates per query.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var evaluated int64
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "mapdr_node_index_candidates_evaluated_total "); ok {
			evaluated, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if evaluated < 20*3 || evaluated >= 40*64/2 {
		t.Errorf("candidates evaluated = %d for 20 range + 20 3-NN queries over 64 objects\n%s", evaluated, text)
	}
}

// TestStatsHealthzNegativePaths covers the handlers' method and route
// mismatches.
func TestStatsHealthzNegativePaths(t *testing.T) {
	n := newLinearNode(2)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		body         string
		want         int
	}{
		{http.MethodPost, "/healthz", "{}", http.StatusMethodNotAllowed},
		{http.MethodPost, "/stats", "{}", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/stats", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/updates", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/statsz", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s -> %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// Healthy paths still fine on an empty node.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK      bool `json:"ok"`
		Objects int  `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Objects != 0 {
		t.Errorf("healthz %+v", hz)
	}
}
