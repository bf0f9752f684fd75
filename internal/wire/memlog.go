package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file is the membership half of the wire protocol: the tiny
// ordered record log multi-coordinator clusters replicate membership
// through, and the coordinator peer op family that carries it (plus
// peer hint hand-off and the merged /cluster view). Peer bodies travel
// as StreamPeer payloads on the member stream (stream.go), which a
// coordinator serves on its own GET StreamPath.
//
// A LogRecord is one membership event: a migration run's begin, commit
// or abort, a demoted identity parking, or a self-heal lease
// acquisition/release. Records are totally ordered by (Epoch, Origin):
// every appender stamps Epoch = 1 + the highest epoch it has seen, and
// ties between concurrent appenders break deterministically on the
// origin name — a sequencer without Raft. Lease state is a pure fold
// over the ordered lease records, so it is insensitive to arrival
// order; migration records are fenced by the lease epoch they were
// appended under, so a deposed leader's stragglers are rejected
// everywhere.
//
// On the wire, as a StreamPeer frame's payload (no length prefix or
// version byte: the stream frame delimits it, the upgrade token
// versions it):
//
//	request := op u8 | from str | payload
//	answer  := op u8 | 0 u8 | payload
//	         | op u8 | 1 u8 | error str                  (in-band failure)
//	logpay  := floor uvarint | nrecs uvarint | logrec*          (PeerOpLog)
//	logrec  := epoch uvarint | origin str | kind u8 | lease uvarint |
//	           run uvarint | migkind u8 | target str | addr str |
//	           nweights uvarint | (name str | w f64)* |
//	           holder str | t f64 | until f64
//
// Strings are uvarint-length-prefixed and bounded; every count is
// validated against what the input can hold, so decoders error on
// hostile input instead of panicking or over-allocating — the same
// contract as the update and query codecs, pinned by fuzz.

// MaxPeerNameLen bounds coordinator and member names inside log
// records.
const MaxPeerNameLen = 256

// MaxAddrLen bounds a member base URL inside a Begin record.
const MaxAddrLen = 2048

// MaxLogRecords bounds the record count in one peer frame. Logs are
// compacted (closed runs collapse, superseded lease renewals drop once
// every peer has confirmed them — see the coordinators' compaction
// floor, shipped in every PeerOpLog frame), so a real log is tens of
// records; the bound only rejects hostile frames.
const MaxLogRecords = 65536

// LogKind identifies a membership log record type.
type LogKind uint8

// Membership log record kinds.
const (
	// LogLease acquires the self-heal lease: Holder drives demotions,
	// reweights and migrations until Until (appender clock units).
	// Acquisition is decided by the deterministic fold, not the append —
	// an acquire while another holder's unexpired lease stands is a
	// recorded no-op on every coordinator.
	LogLease LogKind = iota + 1
	// LogRelease ends the holder's lease early.
	LogRelease
	// LogBegin opens migration run Run (= the record's own Epoch):
	// MigKind/Target/Addr name the change, Weights is the full next-ring
	// weight set. Followers compute the next ring and its dual ranges
	// from this record alone.
	LogBegin
	// LogCommit closes run Run: followers swap to the precomputed next
	// ring and drop the run's dual routes.
	LogCommit
	// LogAbort cancels run Run: followers drop its dual routes and
	// forget the next ring.
	LogAbort
	// LogPark records a demoted member's identity parking (Target), so
	// every coordinator refuses reuse of the name.
	LogPark
)

// Valid reports whether k is a known record kind.
func (k LogKind) Valid() bool { return k >= LogLease && k <= LogPark }

func (k LogKind) String() string {
	switch k {
	case LogLease:
		return "lease"
	case LogRelease:
		return "release"
	case LogBegin:
		return "begin"
	case LogCommit:
		return "commit"
	case LogAbort:
		return "abort"
	case LogPark:
		return "park"
	default:
		return fmt.Sprintf("logkind(%d)", uint8(k))
	}
}

// NameWeight is one member's ring weight inside a Begin record. Weight
// sets are encoded sorted by name so identical logs are byte-identical.
type NameWeight struct {
	Name string
	W    float64
}

// LogRecord is one membership event on the replicated log. Only the
// fields of the record's Kind are meaningful; the codec writes them
// all (a record is ~tens of bytes and the uniformity keeps the decoder
// a straight line).
type LogRecord struct {
	// Epoch is the record's slot: 1 + the highest epoch the appender had
	// seen. Origin is the appending coordinator; (Epoch, Origin) totally
	// orders the log.
	Epoch  uint64
	Origin string
	Kind   LogKind
	// Lease is the fencing token: the Epoch of the lease-acquire record
	// the appender held when appending a migration/park record. Records
	// fenced under a superseded lease are rejected by every receiver.
	Lease uint64

	// Migration fields (Begin/Commit/Abort; Park uses Target).
	Run     uint64
	MigKind uint8
	Target  string
	Addr    string
	Weights []NameWeight

	// Lease fields (Lease/Release).
	Holder string
	T      float64
	Until  float64
}

// Before reports whether r precedes o in the log's total order.
func (r LogRecord) Before(o LogRecord) bool {
	if r.Epoch != o.Epoch {
		return r.Epoch < o.Epoch
	}
	return r.Origin < o.Origin
}

// Same reports whether r and o occupy the same log slot (same record,
// possibly received over different paths).
func (r LogRecord) Same(o LogRecord) bool {
	return r.Epoch == o.Epoch && r.Origin == o.Origin
}

// AppendLogRecord appends the encoding of rec to dst.
func AppendLogRecord(dst []byte, rec LogRecord) []byte {
	dst = binary.AppendUvarint(dst, rec.Epoch)
	dst = appendString(dst, rec.Origin)
	dst = append(dst, byte(rec.Kind))
	dst = binary.AppendUvarint(dst, rec.Lease)
	dst = binary.AppendUvarint(dst, rec.Run)
	dst = append(dst, rec.MigKind)
	dst = appendString(dst, rec.Target)
	dst = appendString(dst, rec.Addr)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Weights)))
	for _, nw := range rec.Weights {
		dst = appendString(dst, nw.Name)
		dst = appendF64(dst, nw.W)
	}
	dst = appendString(dst, rec.Holder)
	dst = appendF64(dst, rec.T)
	dst = appendF64(dst, rec.Until)
	return dst
}

// minWeightSize is the smallest encoded NameWeight: empty name + f64.
const minWeightSize = 1 + 8

// DecodeLogRecord decodes one record from the front of data, returning
// the bytes consumed.
func DecodeLogRecord(data []byte) (rec LogRecord, n int, err error) {
	epoch, k := binary.Uvarint(data)
	if k <= 0 {
		return LogRecord{}, 0, fmt.Errorf("wire: bad log epoch")
	}
	rec.Epoch = epoch
	if rec.Origin, err = readString(data, &k, MaxPeerNameLen); err != nil {
		return LogRecord{}, 0, err
	}
	if len(data) <= k {
		return LogRecord{}, 0, fmt.Errorf("wire: truncated log kind")
	}
	rec.Kind = LogKind(data[k])
	k++
	if !rec.Kind.Valid() {
		return LogRecord{}, 0, fmt.Errorf("wire: unknown log kind %d", rec.Kind)
	}
	lease, ln := binary.Uvarint(data[k:])
	if ln <= 0 {
		return LogRecord{}, 0, fmt.Errorf("wire: bad log lease epoch")
	}
	rec.Lease = lease
	k += ln
	run, rn := binary.Uvarint(data[k:])
	if rn <= 0 {
		return LogRecord{}, 0, fmt.Errorf("wire: bad log run id")
	}
	rec.Run = run
	k += rn
	if len(data) <= k {
		return LogRecord{}, 0, fmt.Errorf("wire: truncated log migkind")
	}
	rec.MigKind = data[k]
	k++
	if rec.Target, err = readString(data, &k, MaxPeerNameLen); err != nil {
		return LogRecord{}, 0, err
	}
	if rec.Addr, err = readString(data, &k, MaxAddrLen); err != nil {
		return LogRecord{}, 0, err
	}
	nw, wn := binary.Uvarint(data[k:])
	if wn <= 0 || nw > uint64(len(data)-k)/minWeightSize {
		return LogRecord{}, 0, fmt.Errorf("wire: bad log weight count")
	}
	k += wn
	if nw > 0 {
		rec.Weights = make([]NameWeight, 0, nw)
	}
	for i := uint64(0); i < nw; i++ {
		var w NameWeight
		if w.Name, err = readString(data, &k, MaxPeerNameLen); err != nil {
			return LogRecord{}, 0, err
		}
		if w.W, err = readF64(data, &k); err != nil {
			return LogRecord{}, 0, err
		}
		rec.Weights = append(rec.Weights, w)
	}
	if rec.Holder, err = readString(data, &k, MaxPeerNameLen); err != nil {
		return LogRecord{}, 0, err
	}
	if rec.T, err = readF64(data, &k); err != nil {
		return LogRecord{}, 0, err
	}
	if rec.Until, err = readF64(data, &k); err != nil {
		return LogRecord{}, 0, err
	}
	return rec, k, nil
}

// minLogRecordSize is the smallest encoded LogRecord: four one-byte
// uvarints, two kind bytes, four empty strings (one length byte each),
// and two f64s.
const minLogRecordSize = 4 + 2 + 4 + 16

func appendLogRecords(dst []byte, recs []LogRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = AppendLogRecord(dst, recs[i])
	}
	return dst
}

func readLogRecords(data []byte, k *int) ([]LogRecord, error) {
	count, n := binary.Uvarint(data[*k:])
	if n <= 0 || count > MaxLogRecords || count > uint64(len(data)-*k)/minLogRecordSize {
		return nil, fmt.Errorf("wire: bad log record count")
	}
	*k += n
	var recs []LogRecord
	if count > 0 {
		recs = make([]LogRecord, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		rec, rn, err := DecodeLogRecord(data[*k:])
		if err != nil {
			return nil, fmt.Errorf("wire: log record %d: %w", i, err)
		}
		*k += rn
		recs = append(recs, rec)
	}
	return recs, nil
}

// PeerOp identifies a coordinator peer-protocol operation.
type PeerOp uint8

// Peer-protocol operations.
const (
	// PeerOpLog exchanges membership logs: the request carries the
	// sender's compacted log, the response the receiver's after merging
	// — one round trip converges both.
	PeerOpLog PeerOp = iota + 1
	// PeerOpHints hands hinted updates for a recovered member to the
	// peer that can deliver them (the request names the member).
	PeerOpHints
	// PeerOpView fetches the peer's local /cluster view (JSON payload)
	// for the merged /cluster endpoint.
	PeerOpView
)

// Valid reports whether op is a known peer operation.
func (op PeerOp) Valid() bool { return op >= PeerOpLog && op <= PeerOpView }

func (op PeerOp) String() string {
	switch op {
	case PeerOpLog:
		return "log"
	case PeerOpHints:
		return "hints"
	case PeerOpView:
		return "view"
	default:
		return fmt.Sprintf("peerop(%d)", uint8(op))
	}
}

// PeerRequest is one coordinator-to-coordinator request.
type PeerRequest struct {
	Op PeerOp
	// From names the sending coordinator.
	From string
	// Log is the sender's compacted membership log, Floor its
	// compaction floor: every record at or below Floor was confirmed
	// held by the whole tier before being compacted, so the receiver
	// counts that prefix as covered without seeing it (PeerOpLog).
	Floor uint64
	Log   []LogRecord
	// Member names the hint target, Hints its buffered updates
	// (PeerOpHints).
	Member string
	Hints  []Record
}

// PeerResponse is one peer-protocol response. Err != "" signals an
// application-level failure.
type PeerResponse struct {
	Op  PeerOp
	Err string
	// Log is the receiver's post-merge log, Floor its compaction floor
	// (PeerOpLog; see PeerRequest.Floor).
	Floor uint64
	Log   []LogRecord
	// Applied counts hint records accepted (PeerOpHints).
	Applied int
	// View is the peer's local cluster view, JSON-encoded
	// (PeerOpView).
	View []byte
}

// AppendPeerRequest appends the body of req to dst.
func AppendPeerRequest(dst []byte, req PeerRequest) []byte {
	dst = appendString(append(dst, byte(req.Op)), req.From)
	switch req.Op {
	case PeerOpLog:
		dst = binary.AppendUvarint(dst, req.Floor)
		dst = appendLogRecords(dst, req.Log)
	case PeerOpHints:
		dst = appendString(dst, req.Member)
		dst = binary.AppendUvarint(dst, uint64(len(req.Hints)))
		for i := range req.Hints {
			dst = AppendRecord(dst, req.Hints[i])
		}
	case PeerOpView:
		// no payload
	}
	return dst
}

// checkPeerRequest reports whether req encodes to a body its decoder
// accepts, short of the body's size: a known op, bounded names and log.
func checkPeerRequest(req PeerRequest) error {
	switch {
	case !req.Op.Valid():
		return fmt.Errorf("wire: invalid peer op %d", req.Op)
	case len(req.From) > MaxPeerNameLen || len(req.Member) > MaxPeerNameLen:
		return fmt.Errorf("wire: peer name too long")
	case len(req.Log) > MaxLogRecords:
		return fmt.Errorf("wire: %d log records exceeds %d", len(req.Log), MaxLogRecords)
	}
	return nil
}

// DecodePeerRequest decodes a request body, which must fill body
// exactly, returning its length.
func DecodePeerRequest(body []byte) (req PeerRequest, n int, err error) {
	if len(body) == 0 {
		return PeerRequest{}, 0, fmt.Errorf("wire: empty peer request")
	}
	req.Op = PeerOp(body[0])
	if !req.Op.Valid() {
		return PeerRequest{}, 0, fmt.Errorf("wire: unknown peer op %d", body[0])
	}
	k := 1
	if req.From, err = readString(body, &k, MaxPeerNameLen); err != nil {
		return PeerRequest{}, 0, err
	}
	switch req.Op {
	case PeerOpLog:
		floor, fn := binary.Uvarint(body[k:])
		if fn <= 0 {
			return PeerRequest{}, 0, fmt.Errorf("wire: bad peer floor")
		}
		req.Floor = floor
		k += fn
		if req.Log, err = readLogRecords(body, &k); err != nil {
			return PeerRequest{}, 0, err
		}
	case PeerOpHints:
		if req.Member, err = readString(body, &k, MaxPeerNameLen); err != nil {
			return PeerRequest{}, 0, err
		}
		count, cn := binary.Uvarint(body[k:])
		if cn <= 0 || count > uint64(len(body)-k)/minRecordSize {
			return PeerRequest{}, 0, fmt.Errorf("wire: bad hint record count")
		}
		k += cn
		if count > 0 {
			req.Hints = make([]Record, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			rec, rn, rerr := DecodeRecord(body[k:])
			if rerr != nil {
				return PeerRequest{}, 0, fmt.Errorf("wire: hint record %d: %w", i, rerr)
			}
			k += rn
			req.Hints = append(req.Hints, rec)
		}
	case PeerOpView:
		// no payload
	}
	if k != len(body) {
		return PeerRequest{}, 0, fmt.Errorf("wire: %d trailing bytes in peer request", len(body)-k)
	}
	return req, k, nil
}

// AppendPeerResponse appends the answer body of resp to dst.
func AppendPeerResponse(dst []byte, resp PeerResponse) []byte {
	dst = appendAnswerHead(dst, byte(resp.Op), resp.Err)
	if resp.Err != "" {
		return dst
	}
	switch resp.Op {
	case PeerOpLog:
		dst = binary.AppendUvarint(dst, resp.Floor)
		dst = appendLogRecords(dst, resp.Log)
	case PeerOpHints:
		dst = binary.AppendUvarint(dst, uint64(resp.Applied))
	case PeerOpView:
		dst = binary.AppendUvarint(dst, uint64(len(resp.View)))
		dst = append(dst, resp.View...)
	}
	return dst
}

// DecodePeerResponse decodes an answer body, which must fill body
// exactly, returning its length.
func DecodePeerResponse(body []byte) (resp PeerResponse, n int, err error) {
	op, errMsg, k, err := readAnswerHead(body)
	if err != nil {
		return PeerResponse{}, 0, err
	}
	resp.Op, resp.Err = PeerOp(op), errMsg
	if !resp.Op.Valid() {
		return PeerResponse{}, 0, fmt.Errorf("wire: unknown peer op %d", op)
	}
	if errMsg != "" {
		return resp, k, nil
	}
	switch resp.Op {
	case PeerOpLog:
		floor, fn := binary.Uvarint(body[k:])
		if fn <= 0 {
			return PeerResponse{}, 0, fmt.Errorf("wire: bad peer floor")
		}
		resp.Floor = floor
		k += fn
		if resp.Log, err = readLogRecords(body, &k); err != nil {
			return PeerResponse{}, 0, err
		}
	case PeerOpHints:
		// Applied counts records landed on the receiver — it is not
		// bounded by this (tiny) acknowledgement, only by the request
		// that asked, so sanity-cap it alone.
		applied, an := binary.Uvarint(body[k:])
		if an <= 0 || applied > 1<<31-1 {
			return PeerResponse{}, 0, fmt.Errorf("wire: bad hint applied count")
		}
		resp.Applied = int(applied)
		k += an
	case PeerOpView:
		l, ln := binary.Uvarint(body[k:])
		if ln <= 0 || l > uint64(len(body)-k-ln) {
			return PeerResponse{}, 0, fmt.Errorf("wire: bad view payload length")
		}
		k += ln
		if l > 0 {
			resp.View = append([]byte(nil), body[k:k+int(l)]...)
		}
		k += int(l)
	}
	if k != len(body) {
		return PeerResponse{}, 0, fmt.Errorf("wire: %d trailing bytes in peer answer", len(body)-k)
	}
	return resp, k, nil
}

// PeerTransport carries peer requests to a coordinator and returns its
// response. Transport-level failures surface as errors;
// application-level failures arrive in PeerResponse.Err.
type PeerTransport interface {
	Peer(req PeerRequest) (PeerResponse, error)
}

// MergeLogs merges src into dst in total order, dropping duplicates,
// and reports how many records were new. Both inputs must already be
// sorted by (Epoch, Origin); the result is too.
func MergeLogs(dst, src []LogRecord) ([]LogRecord, int) {
	if len(src) == 0 {
		return dst, 0
	}
	merged := make([]LogRecord, 0, len(dst)+len(src))
	added := 0
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch {
		case dst[i].Same(src[j]):
			merged = append(merged, dst[i])
			i++
			j++
		case dst[i].Before(src[j]):
			merged = append(merged, dst[i])
			i++
		default:
			merged = append(merged, src[j])
			added++
			j++
		}
	}
	merged = append(merged, dst[i:]...)
	for ; j < len(src); j++ {
		merged = append(merged, src[j])
		added++
	}
	return merged, added
}

// EqualLogs reports whether two sorted logs hold the same records.
func EqualLogs(a, b []LogRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(AppendLogRecord(nil, a[i]), AppendLogRecord(nil, b[i])) {
			return false
		}
	}
	return true
}
