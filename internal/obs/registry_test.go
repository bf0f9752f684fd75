package obs

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryIdempotentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mapdr_test_total", "a counter")
	c2 := r.Counter("mapdr_test_total", "a counter")
	if c != c2 {
		t.Fatalf("re-registration returned a different counter")
	}
	c.Add(5)
	g := r.Gauge("mapdr_test_gauge", "a gauge")
	g.Set(2.5)
	r.CounterFunc("mapdr_test_fn_total", "fn counter", func() int64 { return 7 })
	h := r.Histogram("mapdr_test_seconds", "a histogram", TicksSeconds)
	h.Record(0.01)
	s := r.Snapshot()
	if len(s.Metrics) != 4 {
		t.Fatalf("snapshot has %d metrics, want 4", len(s.Metrics))
	}
	if m, _ := s.Find("mapdr_test_total"); m.Value != 5 {
		t.Fatalf("counter value %v, want 5", m.Value)
	}
	if m, _ := s.Find("mapdr_test_fn_total"); m.Value != 7 {
		t.Fatalf("counterfunc value %v, want 7", m.Value)
	}
	if m, _ := s.Find("mapdr_test_seconds"); m.Hist == nil || m.Hist.Count != 1 {
		t.Fatalf("histogram snapshot missing")
	}
}

func TestSnapshotMergeSemantics(t *testing.T) {
	a := Snapshot{}
	a.AddCounter("c_total", "", "", 3)
	a.AddGauge("g", "", "", 1)
	b := Snapshot{}
	b.AddCounter("c_total", "", "", 4)
	b.AddGauge("g", "", "", 9)
	b.AddCounter("only_b_total", "", "", 1)
	a.Merge(b)
	if m, _ := a.Find("c_total"); m.Value != 7 {
		t.Fatalf("merged counter %v, want sum 7", m.Value)
	}
	if m, _ := a.Find("g"); m.Value != 10 {
		t.Fatalf("merged gauge %v, want sum 10", m.Value)
	}
	if _, ok := a.Find("only_b_total"); !ok {
		t.Fatalf("metric only in b was not appended")
	}
	// Labelled variants are distinct merge keys.
	x := Snapshot{}
	x.AddGauge("lag", "", `member="a"`, 1)
	y := Snapshot{}
	y.AddGauge("lag", "", `member="b"`, 2)
	x.Merge(y)
	if len(x.Metrics) != 2 {
		t.Fatalf("labelled variants merged together: %d metrics", len(x.Metrics))
	}
}

func TestSnapshotBinaryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help c").Add(11)
	r.Gauge("g", "help g").Set(3.75)
	h := r.Histogram("h_seconds", "help h", TicksSeconds)
	for i := 0; i < 100; i++ {
		h.Record(float64(i) / 1000)
	}
	h.Record(1e9) // overflow
	s := r.Snapshot()
	blob := s.AppendBinary(nil)
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Metrics) != len(s.Metrics) {
		t.Fatalf("decoded %d metrics, want %d", len(got.Metrics), len(s.Metrics))
	}
	gm, _ := got.Find("h_seconds")
	sm, _ := s.Find("h_seconds")
	if gm.Hist == nil || gm.Hist.Count != sm.Hist.Count || gm.Hist.Overflow != sm.Hist.Overflow || gm.Hist.SumTicks != sm.Hist.SumTicks {
		t.Fatalf("histogram round trip mismatch: %+v vs %+v", gm.Hist, sm.Hist)
	}
	for i := range gm.Hist.Buckets {
		if gm.Hist.Buckets[i] != sm.Hist.Buckets[i] {
			t.Fatalf("bucket %d mismatch", i)
		}
	}
	if gm.Help != "help h" {
		t.Fatalf("help lost in round trip")
	}
	// Corrupt blobs fail cleanly.
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeSnapshot(blob[:cut]); err == nil && cut != len(blob) {
			t.Fatalf("truncated blob at %d decoded without error", cut)
		}
	}
}

// TestDecodeSnapshotBoundsAllocation: a blob's claimed counts must not
// drive allocation. Neither a 4-byte blob claiming 2^20 metrics nor
// 10,000 empty histograms in 90 KB (each a dense bucket array once
// decoded) may allocate 1 MiB, decoded or rejected.
func TestDecodeSnapshotBoundsAllocation(t *testing.T) {
	countOnly := binary.AppendUvarint([]byte{snapshotCodecVersion}, 1<<20)
	const emptyHists = 10000
	hists := binary.AppendUvarint([]byte{snapshotCodecVersion}, emptyHists)
	for i := 0; i < emptyHists; i++ {
		// Three empty strings, the kind, four zero scalars, no buckets.
		hists = append(hists, 0, 0, 0, byte(KindHistogram), 0, 0, 0, 0, 0)
	}
	for name, blob := range map[string][]byte{"claimed count": countOnly, "empty histograms": hists} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(blob)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s (%d B): decode allocated %d B (err %v)", name, len(blob), got, err)
		}
	}
}

// FuzzSnapshotDecode: any input decodes or errors, never panics, and
// what decodes stays within the input's bounds and re-encodes stably.
func FuzzSnapshotDecode(f *testing.F) {
	r := NewRegistry()
	r.Counter("c_total", "help c").Add(11)
	r.Gauge("g", "").Set(-2.5)
	h := r.Histogram("h_seconds", "help h", TicksSeconds)
	h.Record(0.25)
	h.Record(1e9)
	blob := r.Snapshot().AppendBinary(nil)
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add(binary.AppendUvarint([]byte{snapshotCodecVersion}, 1<<20))
	f.Add([]byte{snapshotCodecVersion, 2, 0, 0, 0, byte(KindHistogram), 0, 0, 0, 0, 0, 0, 0, 0, byte(KindHistogram), 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		hists := 0
		for _, m := range s.Metrics {
			if m.Hist != nil {
				hists++
			}
		}
		if len(s.Metrics) > len(data)/minMetricSize || hists > maxDecodedHists {
			t.Fatalf("%d input bytes decoded to %d metrics, %d histograms", len(data), len(s.Metrics), hists)
		}
		again := s.AppendBinary(nil)
		s2, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(s2.AppendBinary(nil), again) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("mapdr_updates_total", "updates applied").Add(42)
	h := r.Histogram("mapdr_query_seconds", "query latency", TicksSeconds)
	h.Record(0.002)
	h.Record(0.004)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE mapdr_updates_total counter",
		"mapdr_updates_total 42",
		"# TYPE mapdr_query_seconds histogram",
		`mapdr_query_seconds_bucket{le="+Inf"} 2`,
		"mapdr_query_seconds_count 2",
		"mapdr_query_seconds_sum 0.00",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Cumulative buckets must be monotone.
	prev := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "mapdr_query_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value %q", fields[1])
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q", line)
		}
		prev = v
	}
}
