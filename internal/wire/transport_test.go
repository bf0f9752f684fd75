package wire

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/netsim"
)

// collectSink records every delivered batch.
type collectSink struct {
	recs []Record
}

func (s *collectSink) Deliver(batch []Record) error {
	s.recs = append(s.recs, batch...)
	return nil
}

func rec(id string, seq uint32, t float64) Record {
	return Record{ID: id, Update: core.Update{
		Reason: core.ReasonDeviation,
		Report: core.Report{Seq: seq, T: t, Pos: geo.Pt(t, t), V: 10},
	}}
}

func TestLoopbackDeliversSynchronously(t *testing.T) {
	sink := &collectSink{}
	tr := NewLoopback(sink)
	batch := []Record{rec("a", 1, 0), rec("b", 1, 0)}
	if err := tr.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 2 {
		t.Fatalf("delivered %d records", len(sink.recs))
	}
	st := tr.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if want := int64(BatchSize(batch)); st.BytesSent != want || st.BytesDelivered != want {
		t.Fatalf("bytes: %+v, want %d", st, want)
	}
	if err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
}

func TestSimLinkDelaysAndDrops(t *testing.T) {
	sink := &collectSink{}
	link := netsim.NewLink(1, 5, 0, 0) // 5 s latency, no loss
	tr := NewSimLink(link, sink)
	if err := tr.Send(0, []Record{rec("a", 1, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(1); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	if tr.Pending() != 1 {
		t.Fatalf("pending = %d", tr.Pending())
	}
	if err := tr.Flush(5); err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 1 || sink.recs[0].ID != "a" {
		t.Fatalf("delivered: %+v", sink.recs)
	}
	st := tr.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// A link that always loses drops every record.
	lossy := NewSimLink(netsim.NewLink(2, 0, 0, 1), &collectSink{})
	lossy.Send(0, []Record{rec("a", 1, 0), rec("a", 2, 1)})
	lossy.Flush(10)
	if st := lossy.Stats(); st.Dropped != 2 || st.Delivered != 0 {
		t.Fatalf("lossy stats: %+v", st)
	}
}

// TestSimLinkPayloadIdentity: the simulated link must carry the exact
// Record value (no codec round trip), so in-sim results stay bit-exact.
func TestSimLinkPayloadIdentity(t *testing.T) {
	sink := &collectSink{}
	tr := NewSimLink(netsim.NewPerfect(), sink)
	in := rec("x", 7, 123.456789)
	in.Update.Report.V = 1.0 / 3.0 // not f32-representable
	tr.Send(0, []Record{in})
	tr.Flush(0)
	if len(sink.recs) != 1 || sink.recs[0].Update.Report != in.Update.Report {
		t.Fatalf("payload changed in flight: %+v", sink.recs)
	}
}

func TestHTTPClientPostsFrames(t *testing.T) {
	var got []Record
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/updates" {
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != ContentType {
			http.Error(w, "bad content type "+ct, http.StatusUnsupportedMediaType)
			return
		}
		if err := ReadFrames(r.Body, func(recs []Record) { got = append(got, recs...) }); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(IngestResponse{Records: len(got), Applied: len(got)})
	}))
	defer srv.Close()

	tr := NewClient(srv.URL, srv.Client())
	batch := []Record{rec("a", 1, 0), rec("b", 1, 0), rec("a", 2, 5)}
	if err := tr.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Update.Report.Seq != 2 {
		t.Fatalf("server got %+v", got)
	}
	st := tr.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Frames != 1 || st.FrameBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHTTPClientChunksOversizedBatches: a batch too big for one frame
// (maximal ids) must be split across several POSTs, never rejected.
func TestHTTPClientChunksOversizedBatches(t *testing.T) {
	var got int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := ReadFrames(r.Body, func(recs []Record) { got += len(recs) }); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	longID := strings.Repeat("x", MaxIDLen)
	batch := make([]Record, maxRecordsPerFrame+5)
	for i := range batch {
		batch[i] = rec(longID, uint32(i)+1, 0)
	}
	// Sanity: this batch cannot fit one frame body.
	if BatchSize(batch) <= MaxFrameBody {
		t.Fatalf("test batch too small to exercise chunking: %d", BatchSize(batch))
	}
	tr := NewClient(srv.URL, srv.Client())
	if err := tr.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	if got != len(batch) {
		t.Fatalf("server received %d of %d records", got, len(batch))
	}
	if st := tr.Stats(); st.Frames < 2 {
		t.Fatalf("expected multiple frames, got %d", st.Frames)
	}
}

func TestHTTPClientSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "store on fire", http.StatusInternalServerError)
	}))
	defer srv.Close()
	tr := NewClient(srv.URL, srv.Client())
	if err := tr.Send(0, []Record{rec("a", 1, 0)}); err == nil {
		t.Fatal("expected error from 500")
	}
}
