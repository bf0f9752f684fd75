package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

func sampleBatch() []Record {
	return []Record{
		{ID: "car-01", Update: core.Update{
			Reason: core.ReasonInit,
			Report: core.Report{Seq: 1, T: 10, Pos: geo.Pt(3, 4), V: 30, Heading: 1.5},
		}},
		{ID: "car-02", Update: core.Update{
			Reason: core.ReasonDeviation,
			Report: core.Report{
				Seq: 900, T: 20.5, Pos: geo.Pt(-100, 2500), V: 13, Heading: -2,
				Link: roadmap.Dir{Link: 77, Forward: true}, Offset: 42.5,
			},
		}},
		{ID: "", Update: core.Update{
			Reason: core.ReasonPeriodic,
			Report: core.Report{Seq: 3, RouteOffset: 12000, Omega: 0.25},
		}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleBatch() {
		data := AppendRecord(nil, rec)
		if len(data) != RecordSize(rec) {
			t.Fatalf("RecordSize = %d, encoded %d", RecordSize(rec), len(data))
		}
		out, n, err := DecodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if out.ID != rec.ID || out.Update.Reason != rec.Update.Reason ||
			out.Update.Report.Seq != rec.Update.Report.Seq ||
			out.Update.Report.Link != rec.Update.Report.Link {
			t.Fatalf("round trip: %+v vs %+v", out, rec)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	batch := sampleBatch()
	frame, err := EncodeFrame(batch)
	if err != nil {
		t.Fatal(err)
	}
	recs, n, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) || len(recs) != len(batch) {
		t.Fatalf("decoded %d records, consumed %d of %d", len(recs), n, len(frame))
	}
	for i := range recs {
		if recs[i].ID != batch[i].ID || recs[i].Update.Report.Seq != batch[i].Update.Report.Seq {
			t.Fatalf("record %d: %+v vs %+v", i, recs[i], batch[i])
		}
	}
	// Two frames back to back: DecodeFrame consumes exactly one.
	double := append(append([]byte{}, frame...), frame...)
	recs2, n2, err := DecodeFrame(double)
	if err != nil || n2 != len(frame) || len(recs2) != len(batch) {
		t.Fatalf("stream decode: n=%d err=%v", n2, err)
	}
}

func TestFrameEmptyBatch(t *testing.T) {
	frame, err := EncodeFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := DecodeFrame(frame)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty frame: %v, %d records", err, len(recs))
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid, _ := EncodeFrame(sampleBatch())
	flip := func(off int, b byte) []byte {
		d := append([]byte{}, valid...)
		d[off] = b
		return d
	}
	overCount := append([]byte{}, valid...)
	// Rewrite the count varint (body starts at 4, count at 5) to a huge
	// claim; the body cannot hold it.
	overCount[5] = 0xFF
	overCount = append(overCount[:6], append([]byte{0xFF, 0x7F}, overCount[6:]...)...)
	binary.LittleEndian.PutUint32(overCount, uint32(len(overCount)-4))

	hugeBody := make([]byte, 8)
	binary.LittleEndian.PutUint32(hugeBody, MaxFrameBody+1)

	cases := map[string][]byte{
		"empty":           {},
		"short header":    {1, 2, 3},
		"truncated body":  valid[:len(valid)-3],
		"bad version":     flip(4, 9),
		"huge body claim": hugeBody,
		"over count":      overCount,
		"trailing junk": func() []byte {
			d := append(append([]byte{}, valid...), 0xAA)
			binary.LittleEndian.PutUint32(d, uint32(len(d)-4))
			return d
		}(),
		// Body layout: version@4, count@5, then record 0: idLen@6,
		// id@7..12, reason@13, report flags@14 — 0xF0 is an unknown flag
		// set, so the first record fails to decode.
		"corrupt record": flip(14, 0xF0),
	}
	for name, data := range cases {
		if _, _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadFrameStream(t *testing.T) {
	batch := sampleBatch()
	frame, _ := EncodeFrame(batch)
	stream := append(append([]byte{}, frame...), frame...)
	var frames [][]Record
	err := ReadFrames(bytes.NewReader(stream), func(recs []Record) {
		frames = append(frames, append([]Record(nil), recs...))
	})
	if err != nil || len(frames) != 2 {
		t.Fatalf("%v after %d frames, want nil after 2", err, len(frames))
	}
	want, _, _ := DecodeFrame(frame)
	for i, recs := range frames {
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, recs, want)
		}
	}
	// A frame cut short mid-body, or mid-header, must error, not hang or
	// panic, after the frames before it were handed over.
	for _, cut := range []int{2, len(frame) - 2} {
		n := 0
		err := ReadFrames(bytes.NewReader(stream[:len(stream)-cut]), func([]Record) { n++ })
		if err == nil || n != 1 {
			t.Fatalf("cut %d: %v after %d frames, want an error after 1", cut, err, n)
		}
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	rec := sampleBatch()[1]
	valid := AppendRecord(nil, rec)
	longID := binary.AppendUvarint(nil, MaxIDLen+1)
	badReason := append([]byte{}, valid...)
	badReason[len(rec.ID)+1] = 0xEE

	cases := map[string][]byte{
		"empty":        {},
		"id too long":  longID,
		"truncated id": valid[:3],
		"bad reason":   badReason,
		"cut report":   valid[:len(valid)-4],
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// FuzzFrameDecode throws arbitrary bytes at the frame decoder: it must
// never panic and never allocate past the input's actual capacity, and
// anything that decodes must re-encode to a decodable equivalent frame.
// The input also goes through a reused RecordBuffer, followed by a
// different valid body: what the buffer decodes must match a
// record-by-record DecodeRecord, and records copied out before the
// second decode must survive it unchanged.
func FuzzFrameDecode(f *testing.F) {
	valid, _ := EncodeFrame(sampleBatch())
	f.Add(valid)
	empty, _ := EncodeFrame(nil)
	f.Add(empty)
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	other := sampleBatch()
	for i := range other {
		other[i].ID = "other-" + other[i].ID
	}
	otherBody := appendFrameBody(nil, other)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := DecodeFrame(data)
		body := data // not a frame: try the bytes as a bare body
		if err == nil {
			body = data[4:n]
		}
		checkReusedDecode(t, body, otherBody)
		if err != nil {
			return
		}
		if n < 4 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		reenc, err := EncodeFrame(recs)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		recs2, _, err := DecodeFrame(reenc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("record count changed: %d vs %d", len(recs2), len(recs))
		}
		for i := range recs {
			// Compare re-encodings, not structs: NaN floats decode
			// legitimately and NaN != NaN would false-alarm.
			if recs2[i].ID != recs[i].ID ||
				!bytes.Equal(AppendRecord(nil, recs2[i]), AppendRecord(nil, recs[i])) {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
	})
}

// checkReusedDecode decodes body, then next, through one RecordBuffer.
// Whatever body decodes to must equal DecodeRecord's reading of it,
// record by record, and copies of those records must come through the
// decode of next unchanged; next, a valid body, must decode whatever
// state body left behind.
func checkReusedDecode(t *testing.T, body, next []byte) {
	t.Helper()
	var dec RecordBuffer
	recs, err := dec.Decode(body)
	var kept []Record
	var keptEnc [][]byte
	if err == nil {
		_, off := binary.Uvarint(body[1:])
		off++
		for i := range recs {
			want, k, err := DecodeRecord(body[off:])
			if err != nil {
				t.Fatalf("record %d: RecordBuffer decoded it, DecodeRecord: %v", i, err)
			}
			if recs[i].ID != want.ID || !bytes.Equal(AppendRecord(nil, recs[i]), AppendRecord(nil, want)) {
				t.Fatalf("record %d: RecordBuffer %+v, DecodeRecord %+v", i, recs[i], want)
			}
			off += k
		}
		if off != len(body) {
			t.Fatalf("records end at %d of %d body bytes", off, len(body))
		}
		kept = append(kept, recs...)
		for i := range kept {
			keptEnc = append(keptEnc, AppendRecord(nil, kept[i]))
		}
	}
	want, err := (&RecordBuffer{}).Decode(next)
	if err != nil {
		t.Fatalf("fresh decode of the second body: %v", err)
	}
	recs2, err := dec.Decode(next)
	if err != nil || len(recs2) != len(want) {
		t.Fatalf("second body through the reused buffer: %d records, %v; want %d", len(recs2), err, len(want))
	}
	for i := range want {
		if recs2[i].ID != want[i].ID || !bytes.Equal(AppendRecord(nil, recs2[i]), AppendRecord(nil, want[i])) {
			t.Fatalf("second body record %d: %+v, want %+v", i, recs2[i], want[i])
		}
	}
	for i := range kept {
		if !bytes.Equal(AppendRecord(nil, kept[i]), keptEnc[i]) {
			t.Fatalf("record %d copied out before the second decode changed after it", i)
		}
	}
}

func TestBatchSizeMatchesEncoding(t *testing.T) {
	batch := sampleBatch()
	total := 0
	for _, rec := range batch {
		total += len(AppendRecord(nil, rec))
	}
	if BatchSize(batch) != total {
		t.Fatalf("BatchSize = %d, encodings sum to %d", BatchSize(batch), total)
	}
	// Records of linear updates are cheaper than map-based ones.
	if RecordSize(batch[0]) >= RecordSize(batch[1]) {
		t.Fatalf("linear record %d not cheaper than map record %d",
			RecordSize(batch[0]), RecordSize(batch[1]))
	}
}

func TestSeqOverflowGuard(t *testing.T) {
	rec := Record{Update: core.Update{Report: core.Report{Seq: math.MaxUint32}}}
	data := AppendRecord(nil, rec)
	out, _, err := DecodeRecord(data)
	if err != nil || out.Update.Report.Seq != math.MaxUint32 {
		t.Fatalf("max seq: %v, %d", err, out.Update.Report.Seq)
	}
}
