package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/wire"
)

func TestBuildServiceAndQuery(t *testing.T) {
	svc, g, err := buildService(2, 1, 2000, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil {
		t.Fatal("no graph returned")
	}
	if svc.Len() != 2 {
		t.Fatalf("objects = %d", svc.Len())
	}
	if svc.Shards() != 8 {
		t.Fatalf("shards = %d", svc.Shards())
	}
	standalone := storeHandler(svc, g, false)
	ts := httptest.NewServer(standalone)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "car-00" {
		t.Errorf("ids = %v", ids)
	}

	resp2, err := http.Get(ts.URL + "/position?id=car-00&t=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("position status = %d", resp2.StatusCode)
	}

	// An update for an unknown id: the standalone store rejects it, a
	// node registers the id.
	post := func(h http.Handler) wire.IngestResponse {
		t.Helper()
		frame, _ := wire.EncodeFrame([]wire.Record{{ID: "ext-1", Update: core.Update{
			Reason: core.ReasonInit, Report: core.Report{Seq: 1, Pos: geo.Pt(10, 20), V: 5}}}})
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/updates", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentType)
		h.ServeHTTP(rec, req)
		var ir wire.IngestResponse
		if err := json.NewDecoder(rec.Body).Decode(&ir); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("POST /updates = %d (%v)", rec.Code, err)
		}
		return ir
	}
	if ir := post(standalone); ir.Applied != 0 || ir.Errors != 1 {
		t.Errorf("standalone store, unknown id: %+v, want applied 0, errors 1", ir)
	}
	if ir := post(storeHandler(svc, g, true)); ir.Applied != 1 || ir.Errors != 0 {
		t.Errorf("node, unknown id: %+v, want applied 1, errors 0", ir)
	}
	if _, ok := svc.Position("ext-1", 0); !ok {
		t.Error("the node did not register ext-1")
	}
}

// TestBuildServiceDeterministicAcrossWorkers checks that the parallel
// startup pipeline yields the same store regardless of worker count.
func TestBuildServiceDeterministicAcrossWorkers(t *testing.T) {
	a, _, err := buildService(3, 7, 1500, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := buildService(3, 7, 1500, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Objects() {
		pa, okA := a.Position(id, 120)
		pb, okB := b.Position(id, 120)
		if okA != okB || (okA && pa.Dist(pb) > 1e-9) {
			t.Errorf("%s: position %v/%v vs %v/%v", id, pa, okA, pb, okB)
		}
	}
}

// TestEmptyServerIngestEndToEnd boots an empty server with auto-register
// ingest and streams updates to it over the wire transport — the
// locserver zero-to-serving path with no simulated fleet at all.
func TestEmptyServerIngestEndToEnd(t *testing.T) {
	svc, g, err := buildService(0, 1, 2000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Len() != 0 {
		t.Fatalf("empty store has %d objects", svc.Len())
	}
	ts := httptest.NewServer(storeHandler(svc, g, true))
	defer ts.Close()

	cl := wire.NewClient(ts.URL, ts.Client())
	err = cl.Send(0, []wire.Record{
		{ID: "ext-1", Update: core.Update{Reason: core.ReasonInit, Report: core.Report{Seq: 1, T: 0, Pos: geo.Pt(10, 20), V: 5}}},
		{ID: "ext-2", Update: core.Update{Reason: core.ReasonInit, Report: core.Report{Seq: 1, T: 0, Pos: geo.Pt(30, 40), V: 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Len() != 2 {
		t.Fatalf("auto-register produced %d objects", svc.Len())
	}
	resp, err := http.Get(ts.URL + "/position?id=ext-1&t=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("position after ingest = %d", resp.StatusCode)
	}
	var pos struct {
		X, Y float64
	}
	if err := json.NewDecoder(resp.Body).Decode(&pos); err != nil {
		t.Fatal(err)
	}
	if pos.X != 10 || pos.Y != 20 {
		t.Errorf("position = (%v, %v)", pos.X, pos.Y)
	}
}

// TestParsePeers covers the coordinator flag parsing: -peers and
// -peers-coordinators share one name=baseURL parser, each with its own
// error wording, and a front refuses its own id as a peer.
func TestParsePeers(t *testing.T) {
	members, err := parsePeers("n1=http://a:1, n2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].Name != "n1" || members[1].Name != "n2" {
		t.Fatalf("members %v", members)
	}
	for _, bad := range []string{"", "   ", "justname", "=http://x", "n="} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
	if _, err := parsePeers("n1=http://a:1,justname"); err == nil || !strings.Contains(err.Error(), `bad peer "justname"`) {
		t.Errorf("parsePeers error %v, want bad peer", err)
	}

	front := func() *cluster.Coordinator {
		coord, err := cluster.NewReplicated(0, 1, members...)
		if err != nil {
			t.Fatal(err)
		}
		coord.EnableFanIn("co-a", cluster.FanInConfig{})
		return coord
	}
	names, err := addPeerCoordinators(front(), " co-b=http://b:2, ,co-c=http://c:3")
	if err != nil || strings.Join(names, ",") != "co-b,co-c" {
		t.Fatalf("peer coordinators %v, err %v", names, err)
	}
	for _, bad := range []string{"justname", "=http://x", "n=", "co-b=http://b:2,co-b=http://b:2"} {
		if _, err := addPeerCoordinators(front(), bad); err == nil {
			t.Errorf("addPeerCoordinators(%q) accepted", bad)
		}
	}
	if _, err := addPeerCoordinators(front(), "co-b=,x"); err == nil || !strings.Contains(err.Error(), `bad peer coordinator "co-b="`) {
		t.Errorf("addPeerCoordinators error %v, want bad peer coordinator", err)
	}
	if _, err := addPeerCoordinators(front(), "co-a=http://a:1,co-b=http://b:2"); err == nil || !strings.Contains(err.Error(), "its own peer") {
		t.Errorf("a front listing itself: err %v, want refusal", err)
	}
}

// TestClusterModeEndToEnd wires two locserver node handlers and a
// coordinator handler together over real HTTP: frames POSTed to the
// coordinator land on the owning nodes and queries merge across them.
func TestClusterModeEndToEnd(t *testing.T) {
	var peers string
	for i, name := range []string{"n1", "n2"} {
		svc, g, err := buildService(0, 1, 2000, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(storeHandler(svc, g, true))
		defer ts.Close()
		if i > 0 {
			peers += ","
		}
		peers += name + "=" + ts.URL
	}
	members, err := parsePeers(peers)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.NewReplicated(0, 1, members...)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.Handler(coord))
	defer front.Close()

	// Stream updates through the coordinator's ingest front door.
	cl := wire.NewClient(front.URL, front.Client())
	var recs []wire.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, wire.Record{
			ID: fmt.Sprintf("ext-%02d", i),
			Update: core.Update{Reason: core.ReasonInit, Report: core.Report{
				Seq: 1, T: 0, Pos: geo.Pt(float64(i)*50, 100), V: 5,
			}},
		})
	}
	if err := cl.Send(0, recs); err != nil {
		t.Fatal(err)
	}

	// Every node got a share (20 ids over 2 nodes virtually never land
	// one-sided with a mixed ring) and the merged query sees them all.
	var clusterStats struct {
		Nodes []struct {
			Name    string `json:"name"`
			Objects int    `json:"objects"`
		} `json:"nodes"`
		TotalObjects int `json:"total_objects"`
	}
	resp, err := http.Get(front.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&clusterStats); err != nil {
		t.Fatal(err)
	}
	if clusterStats.TotalObjects != 20 {
		t.Fatalf("cluster holds %d objects, want 20: %+v", clusterStats.TotalObjects, clusterStats)
	}
	for _, n := range clusterStats.Nodes {
		if n.Objects == 20 {
			t.Errorf("node %s holds everything — not partitioned", n.Name)
		}
	}

	resp2, err := http.Get(front.URL + "/nearest?x=500&y=100&k=20&t=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var hits []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 20 {
		t.Fatalf("merged nearest returned %d of 20", len(hits))
	}
}
