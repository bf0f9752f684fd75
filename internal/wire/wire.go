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
//   - Stream: the cluster's coordinator→node hop, one long-lived
//     connection per member upgraded from HTTP/1.1 and multiplexing
//     query and update frames by request id (stream.go) — also the
//     networked QueryTransport.
//
// On the wire, updates travel as length-prefixed frames of records:
//
//	frame  := bodyLen u32 | body            (bodyLen <= MaxFrameBody)
//	body   := version u8 | count uvarint | count * record
//	record := idLen uvarint | id bytes | reason u8 | report
//
// where report is core.Report's self-delimiting variable-length
// encoding: linear-prediction updates do not pay for the map-bound
// link/route/turn-rate fields, so measured bytes differentiate the
// protocol families. Decoders validate every length against what the
// input can actually hold — corrupt, truncated or adversarial frames
// produce errors, never panics or unbounded allocations.
package wire

import (
	"encoding/binary"
	"fmt"

	"mapdr/internal/core"
)

// Version is the frame body version byte.
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
	idLen, k := binary.Uvarint(data)
	if k <= 0 || idLen > MaxIDLen {
		return Record{}, 0, fmt.Errorf("wire: bad id length")
	}
	n = k
	if uint64(len(data)-n) < idLen+1 {
		return Record{}, 0, fmt.Errorf("wire: truncated record id")
	}
	rec.ID = string(data[n : n+int(idLen)])
	n += int(idLen)
	rec.Update.Reason = core.Reason(data[n])
	n++
	if !rec.Update.Reason.Valid() {
		return Record{}, 0, fmt.Errorf("wire: unknown reason %d", rec.Update.Reason)
	}
	rep, k, err := core.DecodeReport(data[n:])
	if err != nil {
		return Record{}, 0, err
	}
	rec.Update.Report = rep
	return rec, n + k, nil
}

// AppendFrame appends one frame holding batch to dst. The caller must
// keep the batch small enough to fit MaxFrameBody (Client chunks
// batches; see maxRecordsPerFrame) — an oversized body is reported by
// the decoder on the other end, and by EncodeFrame here.
func AppendFrame(dst []byte, batch []Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // body length placeholder
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = AppendRecord(dst, batch[i])
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
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
// stream) is allowed; junk inside the frame body is not.
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
	recs, err := decodeFrameBody(data[4 : 4+bodyLen])
	if err != nil {
		return nil, 0, err
	}
	return recs, 4 + bodyLen, nil
}

// decodeFrameBody decodes a complete frame body.
func decodeFrameBody(body []byte) ([]Record, error) {
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
	recs := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		rec, k, err := DecodeRecord(body[n:])
		if err != nil {
			return nil, fmt.Errorf("wire: record %d: %w", i, err)
		}
		n += k
		recs = append(recs, rec)
	}
	if n != len(body) {
		return nil, fmt.Errorf("wire: %d trailing bytes in frame body", len(body)-n)
	}
	return recs, nil
}
