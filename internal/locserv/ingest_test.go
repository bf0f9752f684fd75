package locserv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/wire"
)

func ingestRecord(id string, seq uint32, t float64, pos geo.Point) wire.Record {
	return wire.Record{ID: id, Update: core.Update{
		Reason: core.ReasonDeviation,
		Report: core.Report{Seq: seq, T: t, Pos: pos, V: 10},
	}}
}

func TestDeliverRecords(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	recs := []wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(1, 2)),
		ingestRecord("ghost", 1, 0, geo.Pt(3, 4)),
		{ID: "", Update: core.Update{Report: core.Report{Seq: 1}}},
	}
	applied, err := s.DeliverRecords(recs, nil)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if err == nil || !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "no object id") {
		t.Fatalf("err = %v", err)
	}
	if pos, ok := s.Position("car1", 0); !ok || pos != geo.Pt(1, 2) {
		t.Fatalf("car1 position: %v %v", pos, ok)
	}
	if s.UpdatesApplied() != 1 {
		t.Fatalf("UpdatesApplied = %d", s.UpdatesApplied())
	}
	if want := int64(recs[0].Update.Report.EncodedSize()); s.WireBytes() != want {
		t.Fatalf("WireBytes = %d, want %d", s.WireBytes(), want)
	}

	// Auto-register admits the unknown object and can reject by id.
	auto := func(id ObjectID) core.Predictor {
		if strings.HasPrefix(string(id), "car") {
			return core.LinearPredictor{}
		}
		return nil
	}
	applied, err = s.DeliverRecords([]wire.Record{
		ingestRecord("car2", 1, 0, geo.Pt(5, 6)),
		ingestRecord("intruder", 1, 0, geo.Pt(7, 8)),
	}, auto)
	if applied != 1 || err == nil {
		t.Fatalf("auto: applied = %d, err = %v", applied, err)
	}
	if !s.Contains("car2") || s.Contains("intruder") {
		t.Fatal("auto-register admitted the wrong objects")
	}

	// Stale duplicates count as delivered-to-replica but not applied.
	if _, err := s.DeliverRecords([]wire.Record{ingestRecord("car1", 1, 0, geo.Pt(9, 9))}, nil); err != nil {
		t.Fatal(err)
	}
	if s.UpdatesApplied() != 2 {
		t.Fatalf("stale delivery changed UpdatesApplied: %d", s.UpdatesApplied())
	}
}

func TestHTTPIngestEndToEnd(t *testing.T) {
	s := NewSharded(4)
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeService(s, func(ObjectID) core.Predictor {
		return core.LinearPredictor{}
	}).Handler())
	defer ts.Close()

	// Drive the client transport against the real endpoint.
	cl := wire.NewClient(ts.URL, ts.Client())
	batch := []wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(0, 0)),
		ingestRecord("car2", 1, 0, geo.Pt(100, 100)),
		ingestRecord("car1", 2, 10, geo.Pt(10, 0)),
	}
	if err := cl.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Frames != 1 {
		t.Fatalf("client stats: %+v", st)
	}
	if pos, ok := s.Position("car2", 0); !ok || pos != geo.Pt(100, 100) {
		t.Fatalf("car2: %v %v", pos, ok)
	}
	if pos, ok := s.Position("car1", 10); !ok || pos != geo.Pt(10, 0) {
		t.Fatalf("car1: %v %v", pos, ok)
	}

	// /stats reflects the ingest.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Objects        int   `json:"objects"`
		Shards         int   `json:"shards"`
		UpdatesApplied int64 `json:"updates_applied"`
		WireBytes      int64 `json:"wire_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 2 || stats.Shards != 4 || stats.UpdatesApplied != 3 || stats.WireBytes == 0 {
		t.Fatalf("stats: %+v", stats)
	}

	// /healthz answers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		OK      bool `json:"ok"`
		Objects int  `json:"objects"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Objects != 2 {
		t.Fatalf("healthz: %+v", health)
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()

	post := func(body []byte, ct string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/updates", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Corrupt frame -> 400.
	resp := post([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0}, wire.ContentType)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame -> %d", resp.StatusCode)
	}

	// Wrong content type -> 415.
	frame, _ := wire.EncodeFrame([]wire.Record{ingestRecord("car1", 1, 0, geo.Pt(0, 0))})
	resp = post(frame, "text/plain")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("wrong content type -> %d", resp.StatusCode)
	}

	// Unknown object without auto-register: 200 with an error count.
	frame2, _ := wire.EncodeFrame([]wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(0, 0)),
		ingestRecord("ghost", 1, 0, geo.Pt(0, 0)),
	})
	resp = post(frame2, wire.ContentType)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial ingest -> %d", resp.StatusCode)
	}
	var ir wire.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 2 || ir.Applied != 1 || ir.Errors != 1 {
		t.Fatalf("ingest response: %+v", ir)
	}

	// GET /updates is not a route.
	gresp, err := http.Get(ts.URL + "/updates")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode == http.StatusOK {
		t.Fatalf("GET /updates -> %d", gresp.StatusCode)
	}
}
