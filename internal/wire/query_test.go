package wire

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mapdr/internal/netsim"
)

func sampleRequests() []QueryRequest {
	return []QueryRequest{
		{Op: OpPosition, ID: "car-01", T: 120.5},
		{Op: OpNearest, X: 12.25, Y: -7.5, K: 10, T: 3600},
		{Op: OpWithin, MinX: -1, MinY: -2, MaxX: 3.5, MaxY: 4.5, T: 0},
		{Op: OpWithin, MinX: 0, MinY: 0, MaxX: 9, MaxY: 9, T: 5, After: "car-0042", Limit: 128},
		{Op: OpStats},
		{Op: OpRegister, ID: "new-object"},
		{Op: OpDeregister, ID: "old-object"},
		{Op: OpExport, Lo: 1 << 62, Hi: 17},
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		t.Run(req.Op.String(), func(t *testing.T) {
			frame, err := EncodeQueryRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeQueryRequest(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frame) {
				t.Fatalf("consumed %d of %d bytes", n, len(frame))
			}
			if !reflect.DeepEqual(got, req) {
				t.Fatalf("round trip:\nin  %+v\nout %+v", req, got)
			}
		})
	}
}

func sampleResponses() []QueryResponse {
	return []QueryResponse{
		{Op: OpPosition, Found: true, Hits: []QueryHit{{X: 1.5, Y: -2.25, Seq: 7}}},
		{Op: OpPosition},
		{Op: OpNearest, Hits: []QueryHit{
			{ID: "a", X: 1, Y: 2, Dist: 3.5, Seq: 1},
			{ID: "b", X: -4, Y: 5e300, Dist: 6, Seq: 1 << 40},
		}},
		{Op: OpNearest, Hits: []QueryHit{}},
		{Op: OpWithin, Hits: []QueryHit{{ID: "only", X: 0.1, Y: 0.2, Seq: 3}}},
		{Op: OpWithin, Hits: []QueryHit{{ID: "page-1", X: 1, Y: 2, Seq: 9}}, Next: "page-1"},
		{Op: OpStats, Stats: StatsPayload{
			Objects: 10, Shards: 4, UpdatesApplied: 123, WireBytes: 4567,
			CellMoves: 1, BoundRecomputes: 2, CellsVisited: 3, RingExpansions: 4,
			IndexedQueries: 5, ScanFallbacks: 6,
		}},
		{Op: OpRegister},
		{Op: OpDeregister},
		{Op: OpExport, Records: []Record{rec("x", 3, 9)}, IDs: []string{"silent-1", "silent-2"}},
		{Op: OpExport, Records: []Record{}, IDs: []string{}},
		{Op: OpNearest, Err: "node on fire"},
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleResponses() {
		t.Run(fmt.Sprintf("%d-%s", i, resp.Op), func(t *testing.T) {
			frame, err := EncodeQueryResponse(resp)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeQueryResponse(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(frame) {
				t.Fatalf("consumed %d of %d bytes", n, len(frame))
			}
			// Encoding does not distinguish nil from empty slices; compare
			// through a normalised view.
			if resp.Err != "" {
				if got.Err != resp.Err || got.Op != resp.Op {
					t.Fatalf("error round trip: %+v", got)
				}
				return
			}
			if got.Op != resp.Op || got.Found != resp.Found || got.Stats != resp.Stats || got.Next != resp.Next {
				t.Fatalf("round trip:\nin  %+v\nout %+v", resp, got)
			}
			if len(got.Hits) != len(resp.Hits) || len(got.Records) != len(resp.Records) || len(got.IDs) != len(resp.IDs) {
				t.Fatalf("lengths differ:\nin  %+v\nout %+v", resp, got)
			}
			for j := range resp.Hits {
				if got.Hits[j] != resp.Hits[j] {
					t.Fatalf("hit %d: %+v != %+v", j, got.Hits[j], resp.Hits[j])
				}
			}
			for j := range resp.IDs {
				if got.IDs[j] != resp.IDs[j] {
					t.Fatalf("id %d: %q != %q", j, got.IDs[j], resp.IDs[j])
				}
			}
			for j := range resp.Records {
				if got.Records[j].ID != resp.Records[j].ID ||
					got.Records[j].Update.Report.Seq != resp.Records[j].Update.Report.Seq {
					t.Fatalf("record %d differs", j)
				}
			}
		})
	}
}

func TestQueryDecodeErrors(t *testing.T) {
	valid, _ := EncodeQueryRequest(QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 3, T: 4})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0}},
		{"truncated body", valid[:len(valid)-3]},
		{"bad version", append([]byte{2, 0, 0, 0}, 99, byte(OpStats))},
		{"retired version", append([]byte{2, 0, 0, 0}, QueryVersion-1, byte(OpStats))},
		{"bad op", append([]byte{2, 0, 0, 0}, QueryVersion, 200)},
		{"trailing bytes", append(append([]byte{}, valid...), 0)[4:]},
		{"oversized claim", []byte{255, 255, 255, 255}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeQueryRequest(tc.data); err == nil {
				t.Error("decode accepted corrupt input")
			}
			if _, _, err := DecodeQueryResponse(tc.data); err == nil {
				t.Error("response decode accepted corrupt input")
			}
		})
	}
	// A frame whose trailing-bytes corruption lives inside the declared
	// body length.
	bad := append([]byte(nil), valid...)
	bad = append(bad, 7)
	bad[0] = byte(len(bad) - 4)
	if _, _, err := DecodeQueryRequest(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("in-body trailing bytes: %v", err)
	}
	// Hit-count bigger than the body can hold must be rejected before
	// allocation.
	huge := []byte{5, 0, 0, 0, QueryVersion, byte(OpNearest), 0, 0xFF, 0x01} // count=255, no hit bytes
	if _, _, err := DecodeQueryResponse(huge); err == nil {
		t.Error("hit-count overflow accepted")
	}
	// Unknown status bytes are corruption, not silent success.
	badStatus := []byte{4, 0, 0, 0, QueryVersion, byte(OpNearest), 9, 0}
	if _, _, err := DecodeQueryResponse(badStatus); err == nil {
		t.Error("unknown status accepted")
	}
	if _, err := EncodeQueryRequest(QueryRequest{Op: 99}); err == nil {
		t.Error("invalid op encoded")
	}
	if _, err := EncodeQueryRequest(QueryRequest{Op: OpRegister, ID: strings.Repeat("x", MaxIDLen+1)}); err == nil {
		t.Error("oversized id encoded")
	}
}

func TestQueryErrorMessageTruncated(t *testing.T) {
	long := strings.Repeat("e", MaxErrLen+500)
	frame, err := EncodeQueryResponse(QueryResponse{Op: OpStats, Err: long})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeQueryResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Err) != MaxErrLen {
		t.Fatalf("error length %d, want %d", len(got.Err), MaxErrLen)
	}
}

// echoServer answers every op with a fixed, op-consistent response.
func echoServer() QueryServer {
	return QueryServerFunc(func(req QueryRequest) QueryResponse {
		switch req.Op {
		case OpPosition:
			return QueryResponse{Op: req.Op, Found: true, Hits: []QueryHit{{ID: req.ID, X: req.T, Y: -req.T}}}
		case OpNearest:
			return QueryResponse{Op: req.Op, Hits: []QueryHit{{ID: "n", X: req.X, Y: req.Y, Dist: 1}}}
		case OpWithin:
			return QueryResponse{Op: req.Op, Hits: []QueryHit{{ID: "w", X: req.MinX, Y: req.MaxY}}}
		case OpStats:
			return QueryResponse{Op: req.Op, Stats: StatsPayload{Objects: 42}}
		default:
			return QueryResponse{Op: req.Op}
		}
	})
}

func TestQueryLoopbackRoundTrips(t *testing.T) {
	lb := NewQueryLoopback(echoServer())
	resp, err := lb.Query(QueryRequest{Op: OpPosition, ID: "car", T: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The position answer is keyed by the request; the frame carries
	// only found + coordinates.
	if !resp.Found || resp.Hits[0].X != 7 || resp.Hits[0].Y != -7 {
		t.Fatalf("resp %+v", resp)
	}
	if _, err := lb.Query(QueryRequest{Op: OpStats}); err != nil {
		t.Fatal(err)
	}
	st := lb.Stats()
	if st.Queries != 2 || st.Errors != 0 || st.BytesSent == 0 || st.BytesReceived == 0 {
		t.Fatalf("stats %+v", st)
	}
	// An unencodable request is a transport error, counted.
	if _, err := lb.Query(QueryRequest{Op: 77}); err == nil {
		t.Fatal("invalid op passed the loopback")
	}
	if st := lb.Stats(); st.Errors != 1 {
		t.Fatalf("errors %d, want 1", st.Errors)
	}
}

func TestSimQueryLinkLoss(t *testing.T) {
	// Total loss: every query is dropped.
	dead := NewSimQueryLink(netsim.NewLink(1, 0, 0, 1), echoServer())
	if _, err := dead.Query(QueryRequest{Op: OpStats}); !errors.Is(err, ErrQueryDropped) {
		t.Fatalf("err %v, want ErrQueryDropped", err)
	}
	if st := dead.Stats(); st.Errors != 1 || st.Queries != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Lossless: answers equal the loopback's.
	clean := NewSimQueryLink(netsim.NewLink(1, 0.2, 0.1, 0), echoServer())
	lb := NewQueryLoopback(echoServer())
	req := QueryRequest{Op: OpNearest, X: 3, Y: 4, K: 5, T: 6}
	a, err := clean.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lb.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lossy-lossless answer %+v != loopback %+v", a, b)
	}

	// A disconnection window drops queries stamped inside it.
	link := netsim.NewLink(1, 0, 0, 0)
	link.Disconnections = []netsim.Window{{From: 10, To: 20}}
	gap := NewSimQueryLink(link, echoServer())
	if _, err := gap.Query(QueryRequest{Op: OpStats, T: 15}); !errors.Is(err, ErrQueryDropped) {
		t.Fatalf("query inside outage: %v", err)
	}
	if _, err := gap.Query(QueryRequest{Op: OpStats, T: 25}); err != nil {
		t.Fatalf("query after outage: %v", err)
	}
}

func TestKeyHashContract(t *testing.T) {
	// Sequential fleet ids must spread across the high bits — the ring
	// partitions by them. Bucket the top 2 bits over a sequential id
	// range and require every bucket populated.
	var buckets [4]int
	for i := 0; i < 4096; i++ {
		buckets[KeyHash(fmt.Sprintf("car-%04d", i))>>62]++
	}
	for b, n := range buckets {
		if n < 256 {
			t.Fatalf("bucket %d holds %d of 4096 sequential ids — high bits not mixed: %v", b, n, buckets)
		}
	}
	if KeyHash("a") == KeyHash("b") {
		t.Error("distinct ids collide")
	}

	// InKeyRange: plain, wrapping and whole-ring ranges.
	cases := []struct {
		h, lo, hi uint64
		want      bool
	}{
		{5, 3, 8, true},
		{3, 3, 8, false}, // half-open: lo excluded
		{8, 3, 8, true},  // hi included
		{9, 3, 8, false},
		{2, 8, 3, true},  // wrap: (8, max] u [0, 3]
		{9, 8, 3, true},  // wrap high side
		{5, 8, 3, false}, // wrap gap
		{7, 7, 7, true},  // lo == hi: whole ring
	}
	for _, tc := range cases {
		if got := InKeyRange(tc.h, tc.lo, tc.hi); got != tc.want {
			t.Errorf("InKeyRange(%d, %d, %d) = %v, want %v", tc.h, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func FuzzQueryFrameDecode(f *testing.F) {
	for _, req := range sampleRequests() {
		frame, err := EncodeQueryRequest(req)
		if err == nil {
			f.Add(frame)
		}
	}
	for _, resp := range sampleResponses() {
		frame, err := EncodeQueryResponse(resp)
		if err == nil {
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are fine.
		req, _, err := DecodeQueryRequest(data)
		if err == nil {
			// Whatever decodes must re-encode decodably.
			frame, err := EncodeQueryRequest(req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			if _, _, err := DecodeQueryRequest(frame); err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
		}
		_, _, _ = DecodeQueryResponse(data)
	})
}

// TestQueryTraceSpanRoundTrip: a traced request carries its id, and a
// response's spans survive the codec.
func TestQueryTraceSpanRoundTrip(t *testing.T) {
	req := QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 5, T: 9, Trace: 0xabcdef}
	frame, err := EncodeQueryRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeQueryRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != req.Trace {
		t.Fatalf("trace id %d, want %d", got.Trace, req.Trace)
	}
	resp := QueryResponse{Op: OpNearest, Spans: []Span{
		{Stage: StageServerDecode, Start: 0, Dur: 1500},
		{Stage: StageNodeQuery, Start: 1500, Dur: 250000},
	}}
	rframe, err := EncodeQueryResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	rgot, _, err := DecodeQueryResponse(rframe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rgot.Spans, resp.Spans) {
		t.Fatalf("spans round trip:\nin  %+v\nout %+v", resp.Spans, rgot.Spans)
	}
	// OpMetrics carries its blob.
	blob := []byte{1, 2, 3, 4, 5}
	mresp := QueryResponse{Op: OpMetrics, Metrics: blob}
	mframe, err := EncodeQueryResponse(mresp)
	if err != nil {
		t.Fatal(err)
	}
	mgot, _, err := DecodeQueryResponse(mframe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mgot.Metrics, blob) {
		t.Fatalf("metrics blob round trip: %v", mgot.Metrics)
	}
}
