package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func sampleRequests() []QueryRequest {
	return []QueryRequest{
		{Op: OpPosition, ID: "car-01", T: 120.5},
		{Op: OpNearest, X: 12.25, Y: -7.5, K: 10, T: 3600},
		{Op: OpWithin, MinX: -1, MinY: -2, MaxX: 3.5, MaxY: 4.5, T: 0},
		{Op: OpWithin, MinX: 0, MinY: 0, MaxX: 9, MaxY: 9, T: 5, After: "car-0042", Limit: 128},
		{Op: OpMetrics},
		{Op: OpRegister, ID: "new-object"},
		{Op: OpDeregister, ID: "old-object"},
		{Op: OpExport, Lo: 1 << 62, Hi: 17},
	}
}

func TestQueryRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		t.Run(req.Op.String(), func(t *testing.T) {
			if err := checkQueryRequest(req); err != nil {
				t.Fatal(err)
			}
			body := AppendQueryRequest(nil, req)
			got, n, err := DecodeQueryRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(body) {
				t.Fatalf("consumed %d of %d bytes", n, len(body))
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
		{Op: OpMetrics, Metrics: []byte{1, 2, 3, 4, 5}},
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
			body := AppendQueryResponse(nil, resp)
			got, n, err := DecodeQueryResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(body) {
				t.Fatalf("consumed %d of %d bytes", n, len(body))
			}
			// Encoding does not distinguish nil from empty slices; compare
			// through a normalised view.
			if resp.Err != "" {
				if got.Err != resp.Err || got.Op != resp.Op {
					t.Fatalf("error round trip: %+v", got)
				}
				return
			}
			if got.Op != resp.Op || got.Found != resp.Found || !bytes.Equal(got.Metrics, resp.Metrics) || got.Next != resp.Next {
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
	valid := AppendQueryRequest(nil, QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 3, T: 4})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0}},
		{"truncated body", valid[:len(valid)-3]},
		{"bad op", []byte{200, 0}},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		// A hit count of 2³²−1 with no hit bytes: rejected before any
		// allocation for it.
		{"oversized claim", []byte{byte(OpNearest), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
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
	if _, _, err := DecodeQueryRequest(append(append([]byte{}, valid...), 7)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: %v", err)
	}
	// Unknown status bytes are corruption, not silent success.
	badStatus := []byte{byte(OpNearest), 9, 0}
	if _, _, err := DecodeQueryResponse(badStatus); err == nil {
		t.Error("unknown status accepted")
	}
	if err := checkQueryRequest(QueryRequest{Op: 99}); err == nil {
		t.Error("invalid op passed the check")
	}
	if err := checkQueryRequest(QueryRequest{Op: OpRegister, ID: strings.Repeat("x", MaxIDLen+1)}); err == nil {
		t.Error("oversized id passed the check")
	}
}

func TestQueryErrorMessageTruncated(t *testing.T) {
	long := strings.Repeat("e", MaxErrLen+500)
	got, _, err := DecodeQueryResponse(AppendQueryResponse(nil, QueryResponse{Op: OpMetrics, Err: long}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Err) != MaxErrLen {
		t.Fatalf("error length %d, want %d", len(got.Err), MaxErrLen)
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
		f.Add(AppendQueryRequest(nil, req))
	}
	for _, resp := range sampleResponses() {
		f.Add(AppendQueryResponse(nil, resp))
	}
	// The failed-answer head's edges: an empty message (decoded as the
	// default) and bytes after the message.
	f.Add([]byte{byte(OpMetrics), 1, 0})
	f.Add([]byte{byte(OpWithin), 1, 1, 'e', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are fine. Whatever
		// decodes filled data and must re-encode decodably.
		if req, n, err := DecodeQueryRequest(data); err == nil {
			if n != len(data) {
				t.Fatalf("request decoded %d of %d bytes", n, len(data))
			}
			if err := checkQueryRequest(req); err != nil {
				t.Fatalf("decoded request fails its check: %v", err)
			}
			if _, _, err := DecodeQueryRequest(AppendQueryRequest(nil, req)); err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
		}
		if resp, n, err := DecodeQueryResponse(data); err == nil {
			if n != len(data) {
				t.Fatalf("answer decoded %d of %d bytes", n, len(data))
			}
			if _, _, err := DecodeQueryResponse(AppendQueryResponse(nil, resp)); err != nil {
				t.Fatalf("re-encoded answer does not decode: %v", err)
			}
		}
	})
}

// TestQueryTraceSpanRoundTrip: a traced request carries its id, and a
// response's spans survive the codec.
func TestQueryTraceSpanRoundTrip(t *testing.T) {
	req := QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 5, T: 9, Trace: 0xabcdef}
	got, _, err := DecodeQueryRequest(AppendQueryRequest(nil, req))
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
	rgot, _, err := DecodeQueryResponse(AppendQueryResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rgot.Spans, resp.Spans) {
		t.Fatalf("spans round trip:\nin  %+v\nout %+v", resp.Spans, rgot.Spans)
	}
	// OpMetrics carries its blob.
	blob := []byte{1, 2, 3, 4, 5}
	mgot, _, err := DecodeQueryResponse(AppendQueryResponse(nil, QueryResponse{Op: OpMetrics, Metrics: blob}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mgot.Metrics, blob) {
		t.Fatalf("metrics blob round trip: %v", mgot.Metrics)
	}
}
