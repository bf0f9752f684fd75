// Package wire is the transport layer of the update protocol: it moves
// addressed update records from protocol sources to a location server.
//
// The paper's central cost metric is protocol traffic — update messages
// and bytes between mobile sources and the location server (§2-§4) — so
// the path that carries them is explicit here instead of a Go function
// call buried in the simulation harness. The same codec and Transport
// interface run in four settings:
//
//   - Loopback: synchronous in-process delivery, bit-identical to
//     applying updates directly (the simulation default),
//   - SimLink: delivery through internal/netsim's lossy, delaying link
//     model (the Wolfson disconnection experiments),
//   - Client: real HTTP, POSTing binary frames to a location server's
//     public /updates ingest endpoint (internal/locserv),
//   - Stream: every call inside a cluster, one long-lived connection
//     per node or peer coordinator upgraded from HTTP/1.1 and
//     multiplexing query, update and peer frames by request id
//     (stream.go) — also the PeerTransport, and, as NewStreamLoopback,
//     the same frames answered in process.
//
// On the wire, updates travel as bodies of records:
//
//	body   := version u8 | count uvarint | count * record   (<= MaxFrameBody)
//	record := idLen uvarint | id bytes | reason u8 | report
//	frame  := bodyLen u32 | body
//
// where report is core.Report's self-delimiting variable-length
// encoding: linear-prediction updates do not pay for the map-bound
// link/route/turn-rate fields, so measured bytes differentiate the
// protocol families. A member call carries one body — update, query
// (query.go) or peer (memlog.go) — as the payload of one member-stream
// frame, whose length delimits it and whose upgrade token versions the
// whole protocol. The length-prefixed frame exists only where bodies are
// concatenated — a POST /updates request is a run of frames — and the
// update body keeps its version byte because that public endpoint has
// no upgrade token to carry one. Decoders validate every length against
// what the input can actually hold — corrupt, truncated or adversarial
// input produces errors, never panics or unbounded allocations.
//
// An update body decodes into a RecordBuffer, which keeps its record
// slice from body to body; the ids of one body are substrings of one
// string holding only that body's id bytes, so a body costs O(1)
// allocations whatever its record count. The receiving paths — POST
// /updates (ReadFrames), the node's member-stream workers and the
// in-process member — all decode that way, so the records a sink or
// StreamServer.Deliver receives are valid only during the call. Code
// that keeps a record copies it, and code that keeps an id as a map key
// clones it (strings.Clone), or the key would pin its frame's id string:
// the store's registration and HintBuffer do.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"mapdr/internal/core"
)

// Version is the update body version byte.
const Version = 1

// MaxFrameBody bounds a frame body; larger claims are rejected before
// any allocation. 4 MiB holds ~100k map-based records.
const MaxFrameBody = 4 << 20

// MaxIDLen bounds an object id inside a record.
const MaxIDLen = 1024

// minRecordSize is the smallest possible record: empty id, reason byte,
// minimal report. A frame body claiming more records than bodyLen /
// minRecordSize is lying and is rejected without allocating.
const minRecordSize = 1 + 1 + core.MinEncodedSize

// Record is one addressed protocol update, the unit a Transport
// carries. ID is empty on single-object streams (sim.Run).
type Record struct {
	ID     string
	Update core.Update
}

// RecordSize returns the exact encoded size of rec in bytes.
func RecordSize(rec Record) int {
	return core.UvarintLen(uint64(len(rec.ID))) + len(rec.ID) + 1 + rec.Update.Report.EncodedSize()
}

// BatchSize returns the total encoded size of a batch's records,
// excluding frame framing.
func BatchSize(batch []Record) int {
	n := 0
	for i := range batch {
		n += RecordSize(batch[i])
	}
	return n
}

// AppendRecord appends the encoding of rec to dst.
func AppendRecord(dst []byte, rec Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec.ID)))
	dst = append(dst, rec.ID...)
	dst = append(dst, byte(rec.Update.Reason))
	return rec.Update.Report.AppendBinary(dst)
}

// DecodeRecord decodes one record from the front of data, returning the
// bytes consumed.
func DecodeRecord(data []byte) (rec Record, n int, err error) {
	rec, id, n, err := decodeRecord(data)
	if err != nil {
		return Record{}, 0, err
	}
	rec.ID = string(data[id.at : id.at+id.n])
	return rec, n, nil
}

// idSpan locates an id's bytes in a buffer: buf[at : at+n].
type idSpan struct{ at, n int32 }

// decodeRecord is DecodeRecord without the id's allocation: it returns
// where the id lies in data beside a record whose ID is empty.
func decodeRecord(data []byte) (rec Record, id idSpan, n int, err error) {
	idLen, k := binary.Uvarint(data)
	if k <= 0 || idLen > MaxIDLen {
		return Record{}, idSpan{}, 0, fmt.Errorf("wire: bad id length")
	}
	n = k
	if uint64(len(data)-n) < idLen+1 {
		return Record{}, idSpan{}, 0, fmt.Errorf("wire: truncated record id")
	}
	id = idSpan{int32(n), int32(idLen)}
	n += int(idLen)
	rec.Update.Reason = core.Reason(data[n])
	n++
	if !rec.Update.Reason.Valid() {
		return Record{}, idSpan{}, 0, fmt.Errorf("wire: unknown reason %d", rec.Update.Reason)
	}
	rep, k, err := core.DecodeReport(data[n:])
	if err != nil {
		return Record{}, idSpan{}, 0, err
	}
	rec.Update.Report = rep
	return rec, id, n + k, nil
}

// AppendFrame appends one frame holding batch to dst. The caller must
// keep the batch small enough to fit MaxFrameBody (Client chunks
// batches; see maxRecordsPerFrame) — an oversized body is reported by
// the decoder on the other end, and by EncodeFrame here.
func AppendFrame(dst []byte, batch []Record) []byte {
	start := len(dst)
	dst = appendFrameBody(append(dst, 0, 0, 0, 0), batch) // body length placeholder
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendFrameBody appends the update body holding batch to dst.
func appendFrameBody(dst []byte, batch []Record) []byte {
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = AppendRecord(dst, batch[i])
	}
	return dst
}

// EncodeFrame encodes batch as one frame, validating the size bound.
func EncodeFrame(batch []Record) ([]byte, error) {
	body := 1 + core.UvarintLen(uint64(len(batch))) + BatchSize(batch)
	if body > MaxFrameBody {
		return nil, fmt.Errorf("wire: frame body %d exceeds %d bytes", body, MaxFrameBody)
	}
	return AppendFrame(make([]byte, 0, 4+body), batch), nil
}

// DecodeFrame decodes one frame from the front of data, returning the
// records and the bytes consumed. Trailing data (the next frame of a
// stream) is allowed; junk inside the frame body is not. The records are
// the caller's to keep; like RecordBuffer's, their ids share one
// allocation.
func DecodeFrame(data []byte) ([]Record, int, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("wire: truncated frame header")
	}
	// Compare before converting to int: on 32-bit platforms int() would
	// wrap a hostile length negative and slip past the bound.
	bodyLen32 := binary.LittleEndian.Uint32(data)
	if bodyLen32 > MaxFrameBody {
		return nil, 0, fmt.Errorf("wire: frame body %d exceeds %d bytes", bodyLen32, MaxFrameBody)
	}
	bodyLen := int(bodyLen32)
	if len(data)-4 < bodyLen {
		return nil, 0, fmt.Errorf("wire: frame body truncated (%d of %d bytes)", len(data)-4, bodyLen)
	}
	var b RecordBuffer
	recs, err := b.Decode(data[4 : 4+bodyLen])
	if err != nil {
		return nil, 0, err
	}
	return recs, 4 + bodyLen, nil
}

// RecordBuffer decodes update bodies into state it keeps between calls,
// so that decoding a body costs O(1) allocations whatever its record
// count. The zero value is ready to use; a RecordBuffer is not safe for
// concurrent use.
type RecordBuffer struct {
	recs []Record
	ids  []idSpan // where each record's id lies in the body being decoded
	raw  []byte   // ReadFrames' frame buffer
}

// recordBuffers lends RecordBuffers to the calls that decode one body
// and are done with it on return (ReadFrames, the in-process member
// stream).
var recordBuffers = sync.Pool{New: func() any { return new(RecordBuffer) }}

// Decode decodes an update body, which must fill body exactly. The
// returned slice is the buffer's own and the next Decode overwrites it:
// a caller that keeps records past that copies them. The ids of one
// body are substrings of one string that holds only that body's id
// bytes — one allocation per body, none per record — so an id kept for
// long pins that string, and code that keeps one clones it
// (strings.Clone).
func (b *RecordBuffer) Decode(body []byte) ([]Record, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("wire: empty frame body")
	}
	if body[0] != Version {
		return nil, fmt.Errorf("wire: unsupported frame version %d", body[0])
	}
	n := 1
	count, k := binary.Uvarint(body[n:])
	if k <= 0 {
		return nil, fmt.Errorf("wire: bad record count")
	}
	n += k
	// A record costs at least minRecordSize bytes, so a count the body
	// cannot hold is corruption — reject before allocating for it.
	if count > uint64(len(body)-n)/minRecordSize {
		return nil, fmt.Errorf("wire: record count %d exceeds body capacity", count)
	}
	recs := slices.Grow(b.recs[:0], int(count))
	ids := slices.Grow(b.ids[:0], int(count))
	defer func() { b.recs, b.ids = recs[:0], ids[:0] }()
	idBytes := 0
	for i := uint64(0); i < count; i++ {
		rec, id, k, err := decodeRecord(body[n:])
		if err != nil {
			return nil, fmt.Errorf("wire: record %d: %w", i, err)
		}
		id.at += int32(n)
		ids = append(ids, id)
		recs = append(recs, rec)
		idBytes += int(id.n)
		n += k
	}
	if n != len(body) {
		return nil, fmt.Errorf("wire: %d trailing bytes in frame body", len(body)-n)
	}
	var sb strings.Builder
	sb.Grow(idBytes)
	for _, id := range ids {
		sb.Write(body[id.at : id.at+id.n])
	}
	all := sb.String()
	for i, id := range ids {
		recs[i].ID, all = all[:id.n], all[id.n:]
	}
	return recs, nil
}
