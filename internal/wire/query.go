package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"mapdr/internal/core"
)

// This file is the query half of the wire protocol: position, k-nearest
// and range queries (plus the cluster-admin operations register,
// deregister, export and metrics) travel as binary request and answer
// bodies, one per StreamQuery frame of the member stream (stream.go),
// so every call inside a cluster shares one framing.
//
// On the wire, as a StreamQuery frame's payload:
//
//	request := op u8 | payload | trace uvarint
//	answer  := op u8 | 0 u8 | payload | nspans uvarint | span*
//	         | op u8 | 1 u8 | error str                  (in-band failure)
//
// A body has no length prefix and no version byte: the stream frame's
// length delimits it, and the member-stream upgrade token
// (StreamProtocol) is the one version, so a cluster upgrades its
// coordinators and nodes together. Scalars are little-endian; f64 is
// IEEE 754 bits, so query times, coordinates and distances round-trip
// bit-exactly — the scatter-gather coordinator's merged answers are
// bit-identical to a single-process store's. Object ids ride as
// uvarint-length-prefixed bytes bounded by MaxIDLen; export payloads
// reuse the update record codec. Decoders validate every count and
// length against what the input can hold.

// MaxErrLen bounds an error message inside an answer.
const MaxErrLen = 1024

// QueryOp identifies a query-protocol operation.
type QueryOp uint8

// Query-protocol operations. The first three are the paper's query
// families; the rest are the cluster-admin surface of a node.
const (
	OpPosition   QueryOp = iota + 1 // one object's position at time t
	OpNearest                       // k nearest objects to a point at time t
	OpWithin                        // all objects inside a rect at time t
	OpRegister                      // register an object (node-side predictor factory)
	OpDeregister                    // remove an object
	OpExport                        // export replicas in a key-hash range (handoff)
	OpMetrics                       // node obs-registry snapshot (binary blob), counters included
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

// Span is one timed stage inside a traced response: Start is the
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

// QueryHitSize returns the exact encoded size of h inside an answer —
// what server-side paging budgets against.
func QueryHitSize(h QueryHit) int {
	return core.UvarintLen(uint64(len(h.ID))) + len(h.ID) + 3*8 + core.UvarintLen(h.Seq)
}

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
	// request (empty when untraced). Transports prepend
	// their own client-side spans before handing the response up.
	Spans []Span
	// Metrics is the OpMetrics answer: an opaque internal/obs binary
	// snapshot blob (the wire layer does not interpret it).
	Metrics []byte
}

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

// appendAnswerHead appends the head every query and peer answer starts
// with: its op, then status 0, or status 1 and errMsg cut to MaxErrLen,
// which completes a failed answer.
func appendAnswerHead(dst []byte, op byte, errMsg string) []byte {
	if errMsg == "" {
		return append(dst, op, 0)
	}
	return appendString(append(dst, op, 1), errMsg[:min(len(errMsg), MaxErrLen)])
}

// readAnswerHead reads the head appendAnswerHead wrote. A failed answer
// returns its message ("unknown remote error" when empty) and must end
// with it; a successful one returns the offset of its payload.
func readAnswerHead(body []byte) (op byte, errMsg string, k int, err error) {
	if len(body) < 2 {
		return 0, "", 0, fmt.Errorf("wire: truncated answer")
	}
	k = 2
	switch body[1] {
	case 0:
		return body[0], "", k, nil
	case 1:
		if errMsg, err = readString(body, &k, MaxErrLen); err != nil {
			return 0, "", 0, err
		}
		if k != len(body) {
			return 0, "", 0, fmt.Errorf("wire: %d trailing bytes after an error answer", len(body)-k)
		}
		return body[0], cmp.Or(errMsg, "unknown remote error"), k, nil
	}
	return 0, "", 0, fmt.Errorf("wire: unknown answer status %d", body[1])
}

// AppendQueryRequest appends the body of req to dst.
func AppendQueryRequest(dst []byte, req QueryRequest) []byte {
	dst = append(dst, byte(req.Op))
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
	case OpMetrics:
		// no payload
	case OpRegister, OpDeregister:
		dst = appendString(dst, req.ID)
	case OpExport:
		dst = binary.LittleEndian.AppendUint64(dst, req.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, req.Hi)
	}
	return binary.AppendUvarint(dst, req.Trace)
}

// checkQueryRequest reports whether req encodes to a body its decoder
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

// DecodeQueryRequest decodes a request body, which must fill body
// exactly, returning its length.
func DecodeQueryRequest(body []byte) (req QueryRequest, n int, err error) {
	if len(body) == 0 {
		return QueryRequest{}, 0, fmt.Errorf("wire: empty query request")
	}
	req.Op = QueryOp(body[0])
	if !req.Op.Valid() {
		return QueryRequest{}, 0, fmt.Errorf("wire: unknown query op %d", body[0])
	}
	k := 1
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
	case OpMetrics:
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
		return QueryRequest{}, 0, fmt.Errorf("wire: %d trailing bytes in query request", len(body)-k)
	}
	return req, k, nil
}

// minHitSize is the smallest encoded QueryHit: empty id + three f64s +
// a one-byte seq.
const minHitSize = 1 + 3*8 + 1

// AppendQueryResponse appends the answer body of resp to dst.
func AppendQueryResponse(dst []byte, resp QueryResponse) []byte {
	dst = appendAnswerHead(dst, byte(resp.Op), resp.Err)
	if resp.Err != "" {
		return dst
	}
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
	return dst
}

// DecodeQueryResponse decodes an answer body, which must fill body
// exactly, returning its length.
func DecodeQueryResponse(body []byte) (resp QueryResponse, n int, err error) {
	op, errMsg, k, err := readAnswerHead(body)
	if err != nil {
		return QueryResponse{}, 0, err
	}
	resp.Op, resp.Err = QueryOp(op), errMsg
	if !resp.Op.Valid() {
		return QueryResponse{}, 0, fmt.Errorf("wire: unknown query op %d", op)
	}
	if errMsg != "" {
		return resp, k, nil
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
		return QueryResponse{}, 0, fmt.Errorf("wire: %d trailing bytes in query answer", len(body)-k)
	}
	return resp, k, nil
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
