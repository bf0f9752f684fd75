package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mapdr/internal/core"
	"mapdr/internal/netsim"
)

// This file is the query half of the wire protocol: position, k-nearest
// and range queries (plus the cluster-admin operations register,
// deregister, export and stats) travel as binary request/response
// frames over the same transport stack as update records, so a location
// service scales out with one codec and one framing discipline for
// both directions of traffic.
//
// On the wire:
//
//	qframe    := bodyLen u32 | qbody              (bodyLen <= MaxFrameBody)
//	qbody     := version u8 | op u8 | payload
//	rframe    := bodyLen u32 | rbody
//	rbody     := version u8 | op u8 | status u8 | payload
//
// Scalars are little-endian; f64 is IEEE 754 bits, so query times,
// coordinates and distances round-trip bit-exactly — the scatter-gather
// coordinator's merged answers are bit-identical to a single-process
// store's. Object ids ride as uvarint-length-prefixed bytes bounded by
// MaxIDLen; export payloads reuse the update record codec. Decoders
// validate every count and length against what the input can hold.

// QueryVersion is the query frame body version byte. It is distinct
// from the update-frame Version space only by context (queries and
// updates travel as different member-stream frame kinds). Version 2 added replica
// sequence numbers to every hit (the coordinator's freshest-Seq merge
// needs them) and the Within paging cursor. Version 3 replaced the
// rebuild-era stats counters with the live spatial index's six
// (cell moves, bound recomputes, cells visited, ring expansions,
// indexed queries, scan fallbacks). Version 4 added the telemetry
// surface: a trace id trailing every request, per-hop timing spans
// trailing every success response, and the OpMetrics operation
// carrying a node's binary metrics snapshot. There is one version on
// the wire: decoders reject every version byte other than QueryVersion,
// so a cluster upgrades its coordinators and nodes together.
const QueryVersion = 4

// MaxErrLen bounds an error message inside a response frame.
const MaxErrLen = 1024

// QueryOp identifies a query-protocol operation.
type QueryOp uint8

// Query-protocol operations. The first three are the paper's query
// families; the rest are the cluster-admin surface of a node.
const (
	OpPosition   QueryOp = iota + 1 // one object's position at time t
	OpNearest                       // k nearest objects to a point at time t
	OpWithin                        // all objects inside a rect at time t
	OpStats                         // node counters snapshot
	OpRegister                      // register an object (node-side predictor factory)
	OpDeregister                    // remove an object
	OpExport                        // export replicas in a key-hash range (handoff)
	OpMetrics                       // node obs-registry snapshot (binary blob; version 4)
)

// Valid reports whether op is a known operation.
func (op QueryOp) Valid() bool { return op >= OpPosition && op <= OpMetrics }

func (op QueryOp) String() string {
	switch op {
	case OpPosition:
		return "position"
	case OpNearest:
		return "nearest"
	case OpWithin:
		return "within"
	case OpStats:
		return "stats"
	case OpRegister:
		return "register"
	case OpDeregister:
		return "deregister"
	case OpExport:
		return "export"
	case OpMetrics:
		return "metrics"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// QueryRequest is one query-protocol request. Only the fields of the
// selected Op are encoded.
type QueryRequest struct {
	Op QueryOp
	// ID addresses Position, Register and Deregister.
	ID string
	// X, Y is the Nearest query point; K its result bound.
	X, Y float64
	K    int
	// MinX..MaxY is the Within query rectangle.
	MinX, MinY, MaxX, MaxY float64
	// T is the query time in seconds (Position, Nearest, Within).
	T float64
	// After is the Within paging cursor: only objects with id > After
	// are answered, so a response that outgrew one frame continues from
	// the last id it carried (QueryResponse.Next).
	After string
	// Limit caps the hits per Within response page (0: bounded only by
	// the frame size).
	Limit int
	// Lo, Hi is the Export key-hash range, half-open (Lo, Hi] on the
	// KeyHash ring (Lo == Hi selects every key).
	Lo, Hi uint64
	// Trace is the sampling coordinator's trace id; 0 (the overwhelming
	// common case) means untraced. A non-zero Trace asks the server to
	// time its stages and return them as response spans.
	Trace uint64
}

// SpanStage identifies one timed stage of a traced query's path.
type SpanStage uint8

// Span stages, client side first. A traced coordinator query
// decomposes into: request encode → transport round trip → response
// decode (all client-side), and server-side request decode → node
// query execution; the coordinator itself adds per-member fan-out and
// merge stages when it folds member spans into its trace ring.
const (
	StageEncodeReq    SpanStage = iota + 1 // client: request frame encode
	StageRTT                               // client: send → receive wall time
	StageDecodeResp                        // client: response frame decode
	StageServerDecode                      // server: request frame decode
	StageNodeQuery                         // server: node-local query execution
	StageFanout                            // coordinator: one member's scatter call
	StageMerge                             // coordinator: freshest-Seq merge + repair scheduling
)

func (s SpanStage) String() string {
	switch s {
	case StageEncodeReq:
		return "encode"
	case StageRTT:
		return "rtt"
	case StageDecodeResp:
		return "decode"
	case StageServerDecode:
		return "srv_decode"
	case StageNodeQuery:
		return "node_query"
	case StageFanout:
		return "fanout"
	case StageMerge:
		return "merge"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Span is one timed stage inside a version-4 response: Start is the
// offset in nanoseconds from the reporting hop's own start, Dur the
// stage duration in nanoseconds.
type Span struct {
	Stage SpanStage
	Start uint64
	Dur   uint64
}

// maxSpans bounds the span list a decoder accepts — far above what
// any real hop emits, low enough that a corrupt count cannot balloon.
const maxSpans = 256

// QueryHit is one object in a query answer. Dist is meaningful for
// Nearest answers (distance to the query point) and zero otherwise.
// Seq is the answering replica's protocol sequence number for the
// object — the freshness signal a replicated coordinator merges on.
type QueryHit struct {
	ID   string
	X, Y float64
	Dist float64
	Seq  uint64
}

// QueryHitSize returns the exact encoded size of h inside a response
// frame — what server-side paging budgets against.
func QueryHitSize(h QueryHit) int {
	return core.UvarintLen(uint64(len(h.ID))) + len(h.ID) + 3*8 + core.UvarintLen(h.Seq)
}

// StatsPayload is the OpStats answer: a node's counter snapshot. The
// index counters mirror internal/locserv's live spatial-index health
// metrics.
type StatsPayload struct {
	Objects, Shards               int64
	UpdatesApplied, WireBytes     int64
	CellMoves, BoundRecomputes    int64
	CellsVisited, RingExpansions  int64
	IndexedQueries, ScanFallbacks int64
}

// statsFieldCount is the number of uvarint fields in a StatsPayload.
const statsFieldCount = 10

// QueryResponse is one query-protocol response. Err != "" signals an
// application-level failure (unknown op, rejected registration, ...);
// the other fields are per-op.
type QueryResponse struct {
	Op  QueryOp
	Err string
	// Found is the Position answer's validity (object known and
	// reported); the position itself is Hits[0].
	Found bool
	// Hits carries Position (one hit), Nearest and Within answers.
	Hits []QueryHit
	// Stats carries the OpStats answer.
	Stats StatsPayload
	// Next is the Within paging cursor: non-empty when the answer was
	// truncated to fit one frame; re-issue the request with After = Next
	// for the following page.
	Next string
	// Records and IDs carry the OpExport answer: one update record per
	// replica with a report, plus the ids of registered-but-unreported
	// objects.
	Records []Record
	IDs     []string
	// Spans carries the serving hop's stage timings for a traced
	// request (version 4; empty when untraced). Transports prepend
	// their own client-side spans before handing the response up.
	Spans []Span
	// Metrics is the OpMetrics answer: an opaque internal/obs binary
	// snapshot blob (the wire layer does not interpret it).
	Metrics []byte
}

// ErrQueryDropped is returned by lossy query transports when the
// request or response was lost in flight.
var ErrQueryDropped = errors.New("wire: query dropped by link")

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func readF64(data []byte, n *int) (float64, error) {
	if len(data)-*n < 8 {
		return 0, fmt.Errorf("wire: truncated f64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(data[*n:]))
	*n += 8
	return v, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(data []byte, n *int, maxLen uint64) (string, error) {
	l, k := binary.Uvarint(data[*n:])
	if k <= 0 || l > maxLen {
		return "", fmt.Errorf("wire: bad string length")
	}
	*n += k
	if uint64(len(data)-*n) < l {
		return "", fmt.Errorf("wire: truncated string")
	}
	s := string(data[*n : *n+int(l)])
	*n += int(l)
	return s, nil
}

// AppendQueryRequest appends the frame encoding of req to dst.
func AppendQueryRequest(dst []byte, req QueryRequest) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // body length placeholder
	dst = append(dst, QueryVersion, byte(req.Op))
	switch req.Op {
	case OpPosition:
		dst = appendString(dst, req.ID)
		dst = appendF64(dst, req.T)
	case OpNearest:
		dst = appendF64(dst, req.X)
		dst = appendF64(dst, req.Y)
		dst = binary.AppendUvarint(dst, uint64(req.K))
		dst = appendF64(dst, req.T)
	case OpWithin:
		dst = appendF64(dst, req.MinX)
		dst = appendF64(dst, req.MinY)
		dst = appendF64(dst, req.MaxX)
		dst = appendF64(dst, req.MaxY)
		dst = appendF64(dst, req.T)
		dst = appendString(dst, req.After)
		dst = binary.AppendUvarint(dst, uint64(req.Limit))
	case OpStats, OpMetrics:
		// no payload
	case OpRegister, OpDeregister:
		dst = appendString(dst, req.ID)
	case OpExport:
		dst = binary.LittleEndian.AppendUint64(dst, req.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, req.Hi)
	}
	dst = binary.AppendUvarint(dst, req.Trace)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// EncodeQueryRequest encodes req as one frame, validating id bounds.
func EncodeQueryRequest(req QueryRequest) ([]byte, error) {
	if err := checkQueryRequest(req); err != nil {
		return nil, err
	}
	return AppendQueryRequest(make([]byte, 0, 64+len(req.ID)+len(req.After)), req), nil
}

// checkQueryRequest reports whether req encodes to a frame its decoder
// accepts: a known op, bounded ids, non-negative counts.
func checkQueryRequest(req QueryRequest) error {
	switch {
	case !req.Op.Valid():
		return fmt.Errorf("wire: invalid query op %d", req.Op)
	case len(req.ID) > MaxIDLen:
		return fmt.Errorf("wire: id length %d exceeds %d", len(req.ID), MaxIDLen)
	case len(req.After) > MaxIDLen:
		return fmt.Errorf("wire: cursor length %d exceeds %d", len(req.After), MaxIDLen)
	case req.Op == OpNearest && req.K < 0:
		return fmt.Errorf("wire: negative k")
	case req.Op == OpWithin && req.Limit < 0:
		return fmt.Errorf("wire: negative page limit")
	}
	return nil
}

// DecodeQueryRequest decodes one request frame from the front of data,
// returning the bytes consumed.
func DecodeQueryRequest(data []byte) (req QueryRequest, n int, err error) {
	body, n, err := queryFrameBody(data)
	if err != nil {
		return QueryRequest{}, 0, err
	}
	if len(body) < 2 {
		return QueryRequest{}, 0, fmt.Errorf("wire: truncated query body")
	}
	if body[0] != QueryVersion {
		return QueryRequest{}, 0, fmt.Errorf("wire: unsupported query version %d", body[0])
	}
	req.Op = QueryOp(body[1])
	if !req.Op.Valid() {
		return QueryRequest{}, 0, fmt.Errorf("wire: unknown query op %d", body[1])
	}
	k := 2
	switch req.Op {
	case OpPosition:
		if req.ID, err = readString(body, &k, MaxIDLen); err == nil {
			req.T, err = readF64(body, &k)
		}
	case OpNearest:
		if req.X, err = readF64(body, &k); err != nil {
			break
		}
		if req.Y, err = readF64(body, &k); err != nil {
			break
		}
		kk, kn := binary.Uvarint(body[k:])
		if kn <= 0 || kk > uint64(math.MaxInt32) {
			err = fmt.Errorf("wire: bad k")
			break
		}
		req.K = int(kk)
		k += kn
		req.T, err = readF64(body, &k)
	case OpWithin:
		for _, f := range []*float64{&req.MinX, &req.MinY, &req.MaxX, &req.MaxY, &req.T} {
			if *f, err = readF64(body, &k); err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		if req.After, err = readString(body, &k, MaxIDLen); err != nil {
			break
		}
		lim, ln := binary.Uvarint(body[k:])
		if ln <= 0 || lim > uint64(math.MaxInt32) {
			err = fmt.Errorf("wire: bad page limit")
			break
		}
		req.Limit = int(lim)
		k += ln
	case OpStats, OpMetrics:
		// no payload
	case OpRegister, OpDeregister:
		req.ID, err = readString(body, &k, MaxIDLen)
	case OpExport:
		if len(body)-k < 16 {
			err = fmt.Errorf("wire: truncated export range")
			break
		}
		req.Lo = binary.LittleEndian.Uint64(body[k:])
		req.Hi = binary.LittleEndian.Uint64(body[k+8:])
		k += 16
	}
	if err != nil {
		return QueryRequest{}, 0, err
	}
	tr, tn := binary.Uvarint(body[k:])
	if tn <= 0 {
		return QueryRequest{}, 0, fmt.Errorf("wire: bad trace id")
	}
	req.Trace = tr
	k += tn
	if k != len(body) {
		return QueryRequest{}, 0, fmt.Errorf("wire: %d trailing bytes in query body", len(body)-k)
	}
	return req, n, nil
}

// minHitSize is the smallest encoded QueryHit: empty id + three f64s +
// a one-byte seq.
const minHitSize = 1 + 3*8 + 1

// AppendQueryResponse appends the frame encoding of resp to dst.
func AppendQueryResponse(dst []byte, resp QueryResponse) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, QueryVersion, byte(resp.Op))
	if resp.Err != "" {
		dst = append(dst, 1)
		msg := resp.Err
		if len(msg) > MaxErrLen {
			msg = msg[:MaxErrLen]
		}
		dst = appendString(dst, msg)
		binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
		return dst
	}
	dst = append(dst, 0)
	switch resp.Op {
	case OpPosition:
		if resp.Found && len(resp.Hits) == 1 {
			dst = append(dst, 1)
			dst = appendF64(dst, resp.Hits[0].X)
			dst = appendF64(dst, resp.Hits[0].Y)
			dst = binary.AppendUvarint(dst, resp.Hits[0].Seq)
		} else {
			dst = append(dst, 0)
		}
	case OpNearest, OpWithin:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Hits)))
		for _, h := range resp.Hits {
			dst = appendString(dst, h.ID)
			dst = appendF64(dst, h.X)
			dst = appendF64(dst, h.Y)
			dst = appendF64(dst, h.Dist)
			dst = binary.AppendUvarint(dst, h.Seq)
		}
		if resp.Op == OpWithin {
			dst = appendString(dst, resp.Next)
		}
	case OpStats:
		for _, v := range resp.Stats.fields() {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	case OpRegister, OpDeregister:
		// no payload
	case OpExport:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Records)))
		for i := range resp.Records {
			dst = AppendRecord(dst, resp.Records[i])
		}
		dst = binary.AppendUvarint(dst, uint64(len(resp.IDs)))
		for _, id := range resp.IDs {
			dst = appendString(dst, id)
		}
	case OpMetrics:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Metrics)))
		dst = append(dst, resp.Metrics...)
	}
	spans := resp.Spans
	if len(spans) > maxSpans {
		spans = spans[:maxSpans]
	}
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, sp := range spans {
		dst = append(dst, byte(sp.Stage))
		dst = binary.AppendUvarint(dst, sp.Start)
		dst = binary.AppendUvarint(dst, sp.Dur)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// fields flattens the payload for the uvarint codec; order is the wire
// contract.
func (s *StatsPayload) fields() [statsFieldCount]int64 {
	return [statsFieldCount]int64{
		s.Objects, s.Shards, s.UpdatesApplied, s.WireBytes,
		s.CellMoves, s.BoundRecomputes, s.CellsVisited, s.RingExpansions,
		s.IndexedQueries, s.ScanFallbacks,
	}
}

func (s *StatsPayload) setFields(v [statsFieldCount]int64) {
	s.Objects, s.Shards, s.UpdatesApplied, s.WireBytes = v[0], v[1], v[2], v[3]
	s.CellMoves, s.BoundRecomputes, s.CellsVisited, s.RingExpansions = v[4], v[5], v[6], v[7]
	s.IndexedQueries, s.ScanFallbacks = v[8], v[9]
}

// EncodeQueryResponse encodes resp as one frame, validating the size
// bound (a Within answer over a huge store can genuinely overflow it;
// the server should page or reject upstream).
func EncodeQueryResponse(resp QueryResponse) ([]byte, error) {
	buf := AppendQueryResponse(make([]byte, 0, 64+minHitSize*len(resp.Hits)), resp)
	if len(buf)-4 > MaxFrameBody {
		return nil, fmt.Errorf("wire: response body %d exceeds %d bytes", len(buf)-4, MaxFrameBody)
	}
	return buf, nil
}

// DecodeQueryResponse decodes one response frame from the front of
// data, returning the bytes consumed.
func DecodeQueryResponse(data []byte) (resp QueryResponse, n int, err error) {
	body, n, err := queryFrameBody(data)
	if err != nil {
		return QueryResponse{}, 0, err
	}
	if len(body) < 3 {
		return QueryResponse{}, 0, fmt.Errorf("wire: truncated response body")
	}
	if body[0] != QueryVersion {
		return QueryResponse{}, 0, fmt.Errorf("wire: unsupported query version %d", body[0])
	}
	resp.Op = QueryOp(body[1])
	if !resp.Op.Valid() {
		return QueryResponse{}, 0, fmt.Errorf("wire: unknown query op %d", body[1])
	}
	status := body[2]
	if status > 1 {
		return QueryResponse{}, 0, fmt.Errorf("wire: unknown response status %d", status)
	}
	k := 3
	if status == 1 {
		if resp.Err, err = readString(body, &k, MaxErrLen); err != nil {
			return QueryResponse{}, 0, err
		}
		if resp.Err == "" {
			resp.Err = "unknown remote error"
		}
		if k != len(body) {
			return QueryResponse{}, 0, fmt.Errorf("wire: trailing bytes in error response")
		}
		return resp, n, nil
	}
	switch resp.Op {
	case OpPosition:
		if len(body) <= k {
			return QueryResponse{}, 0, fmt.Errorf("wire: truncated position response")
		}
		found := body[k]
		k++
		if found == 1 {
			resp.Found = true
			var x, y float64
			if x, err = readF64(body, &k); err == nil {
				y, err = readF64(body, &k)
			}
			if err != nil {
				return QueryResponse{}, 0, err
			}
			seq, sn := binary.Uvarint(body[k:])
			if sn <= 0 {
				return QueryResponse{}, 0, fmt.Errorf("wire: bad position seq")
			}
			k += sn
			resp.Hits = []QueryHit{{X: x, Y: y, Seq: seq}}
		}
	case OpNearest, OpWithin:
		count, kn := binary.Uvarint(body[k:])
		if kn <= 0 || count > uint64(len(body)-k)/minHitSize {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad hit count")
		}
		k += kn
		if count > 0 {
			resp.Hits = make([]QueryHit, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			var h QueryHit
			if h.ID, err = readString(body, &k, MaxIDLen); err != nil {
				return QueryResponse{}, 0, err
			}
			if h.X, err = readF64(body, &k); err != nil {
				return QueryResponse{}, 0, err
			}
			if h.Y, err = readF64(body, &k); err != nil {
				return QueryResponse{}, 0, err
			}
			if h.Dist, err = readF64(body, &k); err != nil {
				return QueryResponse{}, 0, err
			}
			seq, sn := binary.Uvarint(body[k:])
			if sn <= 0 {
				return QueryResponse{}, 0, fmt.Errorf("wire: bad hit seq")
			}
			k += sn
			h.Seq = seq
			resp.Hits = append(resp.Hits, h)
		}
		if resp.Op == OpWithin {
			if resp.Next, err = readString(body, &k, MaxIDLen); err != nil {
				return QueryResponse{}, 0, err
			}
		}
	case OpStats:
		var v [statsFieldCount]int64
		for i := range v {
			u, kn := binary.Uvarint(body[k:])
			if kn <= 0 || u > uint64(math.MaxInt64) {
				return QueryResponse{}, 0, fmt.Errorf("wire: bad stats field %d", i)
			}
			v[i] = int64(u)
			k += kn
		}
		resp.Stats.setFields(v)
	case OpRegister, OpDeregister:
		// no payload
	case OpExport:
		count, kn := binary.Uvarint(body[k:])
		if kn <= 0 || count > uint64(len(body)-k)/minRecordSize {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad export record count")
		}
		k += kn
		if count > 0 {
			resp.Records = make([]Record, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			rec, rn, rerr := DecodeRecord(body[k:])
			if rerr != nil {
				return QueryResponse{}, 0, fmt.Errorf("wire: export record %d: %w", i, rerr)
			}
			k += rn
			resp.Records = append(resp.Records, rec)
		}
		idCount, kn := binary.Uvarint(body[k:])
		if kn <= 0 || idCount > uint64(len(body)-k) {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad export id count")
		}
		k += kn
		if idCount > 0 {
			resp.IDs = make([]string, 0, idCount)
		}
		for i := uint64(0); i < idCount; i++ {
			id, serr := readString(body, &k, MaxIDLen)
			if serr != nil {
				return QueryResponse{}, 0, serr
			}
			resp.IDs = append(resp.IDs, id)
		}
	case OpMetrics:
		blobLen, kn := binary.Uvarint(body[k:])
		if kn <= 0 || blobLen > uint64(len(body)-k-kn) {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad metrics blob length")
		}
		k += kn
		if blobLen > 0 {
			resp.Metrics = append([]byte(nil), body[k:k+int(blobLen)]...)
			k += int(blobLen)
		}
	}
	spanCount, kn := binary.Uvarint(body[k:])
	if kn <= 0 || spanCount > maxSpans || spanCount > uint64(len(body)-k-kn)/3 {
		return QueryResponse{}, 0, fmt.Errorf("wire: bad span count")
	}
	k += kn
	if spanCount > 0 {
		resp.Spans = make([]Span, 0, spanCount)
	}
	for i := uint64(0); i < spanCount; i++ {
		if len(body) <= k {
			return QueryResponse{}, 0, fmt.Errorf("wire: truncated span")
		}
		var sp Span
		sp.Stage = SpanStage(body[k])
		k++
		st, sn := binary.Uvarint(body[k:])
		if sn <= 0 {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad span start")
		}
		sp.Start = st
		k += sn
		d, dn := binary.Uvarint(body[k:])
		if dn <= 0 {
			return QueryResponse{}, 0, fmt.Errorf("wire: bad span duration")
		}
		sp.Dur = d
		k += dn
		resp.Spans = append(resp.Spans, sp)
	}
	if k != len(body) {
		return QueryResponse{}, 0, fmt.Errorf("wire: %d trailing bytes in response body", len(body)-k)
	}
	return resp, n, nil
}

// queryFrameBody validates the length prefix and slices out one frame
// body, returning the total bytes consumed.
func queryFrameBody(data []byte) ([]byte, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("wire: truncated frame header")
	}
	bodyLen32 := binary.LittleEndian.Uint32(data)
	if bodyLen32 > MaxFrameBody {
		return nil, 0, fmt.Errorf("wire: frame body %d exceeds %d bytes", bodyLen32, MaxFrameBody)
	}
	bodyLen := int(bodyLen32)
	if len(data)-4 < bodyLen {
		return nil, 0, fmt.Errorf("wire: frame body truncated (%d of %d bytes)", len(data)-4, bodyLen)
	}
	return data[4 : 4+bodyLen], 4 + bodyLen, nil
}

// KeyHash returns an object id's position on the cluster key ring:
// FNV-1a 64 followed by a murmur-style avalanche finalizer. The
// finalizer matters — raw FNV of sequential ids ("car-001", "car-002",
// ...) differs mostly in the low bits, while ring ownership is decided
// by the high bits, so without it a fleet's ids clump onto one
// partition. KeyHash is part of the wire contract: OpExport ranges are
// expressed in this hash space, so every node — local or remote — must
// agree on it.
func KeyHash(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	// fmix64 (MurmurHash3): full avalanche, bijective.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// InKeyRange reports whether hash h falls in the half-open ring range
// (lo, hi], with wraparound; lo == hi selects the whole ring.
func InKeyRange(h, lo, hi uint64) bool {
	if lo == hi {
		return true
	}
	if lo < hi {
		return h > lo && h <= hi
	}
	return h > lo || h <= hi
}

// QueryServer is the server side of the query protocol: it answers one
// decoded request. internal/locserv binds it to a Node.
type QueryServer interface {
	ServeQuery(req QueryRequest) QueryResponse
}

// QueryServerFunc adapts a function to QueryServer.
type QueryServerFunc func(QueryRequest) QueryResponse

// ServeQuery implements QueryServer.
func (f QueryServerFunc) ServeQuery(req QueryRequest) QueryResponse { return f(req) }

// QueryTransport carries query requests to a server and returns its
// response. Transport-level failures (unreachable, dropped, corrupt
// frame) surface as errors; application-level failures arrive in
// QueryResponse.Err with a nil error.
type QueryTransport interface {
	Query(req QueryRequest) (QueryResponse, error)
}

// QueryStats counts a query transport's traffic.
type QueryStats struct {
	// Queries counts requests offered, Errors the transport-level
	// failures (including drops), Retries the re-sent attempts (member
	// stream).
	Queries, Errors, Retries int64
	// BytesSent and BytesReceived are encoded frame sizes.
	BytesSent, BytesReceived int64
}

// QueryLoopback is the in-process query transport. Requests and
// responses still round-trip through the full frame codec, so a
// loopback cluster proves wire-level behaviour — while staying
// deterministic and synchronous (coordinates are f64 on the wire, so
// answers are bit-identical to direct calls).
type QueryLoopback struct {
	s QueryServer
	c queryCounters
}

type queryCounters struct {
	queries, errors, retries atomic.Int64
	bytesSent, bytesReceived atomic.Int64
}

func (c *queryCounters) snapshot() QueryStats {
	return QueryStats{
		Queries:       c.queries.Load(),
		Errors:        c.errors.Load(),
		Retries:       c.retries.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesReceived.Load(),
	}
}

// NewQueryLoopback returns an in-process query transport against s.
func NewQueryLoopback(s QueryServer) *QueryLoopback { return &QueryLoopback{s: s} }

// Query implements QueryTransport.
func (t *QueryLoopback) Query(req QueryRequest) (QueryResponse, error) {
	t.c.queries.Add(1)
	resp, reqN, respN, err := roundTrip(t.s, req)
	if err != nil {
		t.c.errors.Add(1)
		return QueryResponse{}, err
	}
	t.c.bytesSent.Add(int64(reqN))
	t.c.bytesReceived.Add(int64(respN))
	return resp, nil
}

// Stats returns the transport's traffic counters so far.
func (t *QueryLoopback) Stats() QueryStats { return t.c.snapshot() }

// roundTrip encodes req, decodes it server-side, serves it, and encodes
// and decodes the response — the exact path a networked query takes.
func roundTrip(s QueryServer, req QueryRequest) (resp QueryResponse, reqN, respN int, err error) {
	frame, err := EncodeQueryRequest(req)
	if err != nil {
		return QueryResponse{}, 0, 0, err
	}
	decoded, _, err := DecodeQueryRequest(frame)
	if err != nil {
		return QueryResponse{}, 0, 0, err
	}
	out, err := EncodeQueryResponse(s.ServeQuery(decoded))
	if err != nil {
		return QueryResponse{}, 0, 0, err
	}
	resp, _, err = DecodeQueryResponse(out)
	if err != nil {
		return QueryResponse{}, 0, 0, err
	}
	return resp, len(frame), len(out), nil
}

// SimQueryLink is the lossy query transport: request and response each
// draw the netsim link's loss/disconnection model (sized as their real
// encoded frames), so cluster experiments can measure query failure
// rates under the same link conditions as the update path. The link's
// clock is the request's T field. Latency is not modelled — queries are
// synchronous — but the link still counts offered bytes.
type SimQueryLink struct {
	link *netsim.Link
	s    QueryServer
	c    queryCounters
}

// NewSimQueryLink returns a query transport over link against s. The
// caller keeps ownership of link.
func NewSimQueryLink(link *netsim.Link, s QueryServer) *SimQueryLink {
	return &SimQueryLink{link: link, s: s}
}

// Query implements QueryTransport.
func (t *SimQueryLink) Query(req QueryRequest) (QueryResponse, error) {
	t.c.queries.Add(1)
	frame, err := EncodeQueryRequest(req)
	if err != nil {
		t.c.errors.Add(1)
		return QueryResponse{}, err
	}
	if !t.link.Offer(req.T, len(frame)) {
		t.c.errors.Add(1)
		return QueryResponse{}, ErrQueryDropped
	}
	t.c.bytesSent.Add(int64(len(frame)))
	decoded, _, err := DecodeQueryRequest(frame)
	if err != nil {
		t.c.errors.Add(1)
		return QueryResponse{}, err
	}
	out, err := EncodeQueryResponse(t.s.ServeQuery(decoded))
	if err != nil {
		t.c.errors.Add(1)
		return QueryResponse{}, err
	}
	if !t.link.Offer(req.T, len(out)) {
		t.c.errors.Add(1)
		return QueryResponse{}, ErrQueryDropped
	}
	t.c.bytesReceived.Add(int64(len(out)))
	resp, _, err := DecodeQueryResponse(out)
	if err != nil {
		t.c.errors.Add(1)
		return QueryResponse{}, err
	}
	return resp, nil
}

// Stats returns the transport's traffic counters so far.
func (t *SimQueryLink) Stats() QueryStats { return t.c.snapshot() }
