package wire

import (
	"reflect"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
)

func sampleLogRecords() []LogRecord {
	return []LogRecord{
		{Epoch: 1, Origin: "co-a", Kind: LogLease, Holder: "co-a", T: 10, Until: 25},
		{Epoch: 2, Origin: "co-a", Kind: LogBegin, Lease: 1, Run: 2, MigKind: 1,
			Target: "n4", Addr: "http://n4:8080",
			Weights: []NameWeight{{Name: "n1", W: 1}, {Name: "n2", W: 1.5}, {Name: "n4", W: 1}}},
		{Epoch: 3, Origin: "co-a", Kind: LogCommit, Lease: 1, Run: 2},
		{Epoch: 4, Origin: "co-b", Kind: LogLease, Holder: "co-b", T: 40, Until: 55},
		{Epoch: 5, Origin: "co-b", Kind: LogBegin, Lease: 4, Run: 5, MigKind: 2, Target: "n1",
			Weights: []NameWeight{{Name: "n2", W: 1.5}, {Name: "n4", W: 1}}},
		{Epoch: 6, Origin: "co-b", Kind: LogAbort, Lease: 4, Run: 5},
		{Epoch: 7, Origin: "co-b", Kind: LogPark, Lease: 4, Target: "n1"},
		{Epoch: 8, Origin: "co-b", Kind: LogRelease, Holder: "co-b", T: 60},
	}
}

func TestLogRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleLogRecords() {
		buf := AppendLogRecord(nil, rec)
		got, n, err := DecodeLogRecord(buf)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("record %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

func TestMergeLogs(t *testing.T) {
	recs := sampleLogRecords()
	a := []LogRecord{recs[0], recs[1], recs[2], recs[4]}
	b := []LogRecord{recs[0], recs[3], recs[4], recs[5], recs[7]}
	merged, added := MergeLogs(a, b)
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	want := []LogRecord{recs[0], recs[1], recs[2], recs[3], recs[4], recs[5], recs[7]}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge mismatch:\n got %+v\nwant %+v", merged, want)
	}
	// Merging the other way converges to the same log.
	merged2, _ := MergeLogs(b, a)
	if !EqualLogs(merged, merged2) {
		t.Fatalf("merge not symmetric")
	}
	// Idempotent.
	again, added := MergeLogs(merged, merged2)
	if added != 0 || !EqualLogs(again, merged) {
		t.Fatalf("merge not idempotent (added %d)", added)
	}
}

func TestLogOrder(t *testing.T) {
	a := LogRecord{Epoch: 3, Origin: "co-b"}
	b := LogRecord{Epoch: 3, Origin: "co-a"}
	c := LogRecord{Epoch: 4, Origin: "co-a"}
	if !b.Before(a) || a.Before(b) {
		t.Fatalf("same-epoch tiebreak must order by origin")
	}
	if !a.Before(c) || c.Before(a) {
		t.Fatalf("epoch must dominate origin")
	}
	if !a.Same(LogRecord{Epoch: 3, Origin: "co-b", Kind: LogCommit}) {
		t.Fatalf("Same must key on (epoch, origin) only")
	}
}

func samplePeerRequests() []PeerRequest {
	return []PeerRequest{
		{Op: PeerOpLog, From: "co-a", Floor: 3, Log: sampleLogRecords()},
		{Op: PeerOpLog, From: "co-b"},
		{Op: PeerOpHints, From: "co-a", Member: "n2", Hints: []Record{
			{ID: "veh-1", Update: core.Update{Reason: core.ReasonInit, Report: core.Report{
				Seq: 7, T: 3.5, Pos: geo.Pt(1, 2), V: 3, Heading: 0.5}}},
			{ID: "veh-2", Update: core.Update{Reason: core.ReasonDeviation, Report: core.Report{
				Seq: 9, T: 4.5, Pos: geo.Pt(-1, -2), V: 1, Heading: -0.5}}},
		}},
		{Op: PeerOpView, From: "co-b"},
	}
}

func samplePeerResponses() []PeerResponse {
	return []PeerResponse{
		{Op: PeerOpLog, Floor: 7, Log: sampleLogRecords()},
		{Op: PeerOpHints, Applied: 2},
		{Op: PeerOpView, View: []byte(`{"objects":42}`)},
		{Op: PeerOpLog, Err: "no such coordinator"},
	}
}

func TestPeerFrameRoundTrip(t *testing.T) {
	for i, req := range samplePeerRequests() {
		if err := checkPeerRequest(req); err != nil {
			t.Fatalf("request %d: check: %v", i, err)
		}
		body := AppendPeerRequest(nil, req)
		got, n, err := DecodePeerRequest(body)
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if n != len(body) {
			t.Fatalf("request %d: consumed %d of %d", i, n, len(body))
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, req)
		}
	}
	for i, resp := range samplePeerResponses() {
		body := AppendPeerResponse(nil, resp)
		got, n, err := DecodePeerResponse(body)
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if n != len(body) {
			t.Fatalf("response %d: consumed %d of %d", i, n, len(body))
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

// viewPastBody is a peer view answer (op view, status 0) whose view
// length, 1, counts its own varint byte: no view byte follows.
var viewPastBody = []byte{byte(PeerOpView), 0, 1}

func FuzzLogFrameDecode(f *testing.F) {
	for _, req := range samplePeerRequests() {
		f.Add(AppendPeerRequest(nil, req))
	}
	for _, resp := range samplePeerResponses() {
		f.Add(AppendPeerResponse(nil, resp))
	}
	f.Add(viewPastBody)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are fine. Whatever
		// decodes filled data and must re-encode decodably.
		if req, n, err := DecodePeerRequest(data); err == nil {
			if n != len(data) {
				t.Fatalf("peer request decoded %d of %d bytes", n, len(data))
			}
			if err := checkPeerRequest(req); err != nil {
				t.Fatalf("decoded peer request fails its check: %v", err)
			}
			if _, _, err := DecodePeerRequest(AppendPeerRequest(nil, req)); err != nil {
				t.Fatalf("re-encoded peer request does not decode: %v", err)
			}
		}
		if resp, n, err := DecodePeerResponse(data); err == nil {
			if n != len(data) {
				t.Fatalf("peer answer decoded %d of %d bytes", n, len(data))
			}
			if _, _, err := DecodePeerResponse(AppendPeerResponse(nil, resp)); err != nil {
				t.Fatalf("re-encoded peer answer does not decode: %v", err)
			}
		}
	})
}

// TestPeerViewLengthPastBody: a view length that counts its own varint
// byte is refused — it must neither slice past the body nor read the
// bytes stored behind it.
func TestPeerViewLengthPastBody(t *testing.T) {
	if _, _, err := DecodePeerResponse(viewPastBody); err == nil {
		t.Fatal("a view length past the body decoded")
	}
	spare := append(append(make([]byte, 0, 16), viewPastBody...), 0xAA)[:len(viewPastBody)]
	if _, _, err := DecodePeerResponse(spare); err == nil {
		t.Fatal("a view length past the body decoded the byte behind it")
	}
}
