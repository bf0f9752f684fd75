package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// A burst of stalls in one sub-window owns the pooled p99 but not the
// median sub-window's.
func TestTailIgnoresOneBurst(t *testing.T) {
	var l latencies
	for g := 0; g < subWindows; g++ {
		for i := 0; i < 100; i++ {
			d := time.Millisecond
			if g == 4 && i < 20 {
				d = 500 * time.Millisecond
			}
			l.add(d, g)
		}
	}
	if got := l.pooled(0.99); got != 500 {
		t.Errorf("pooled p99 = %v, want 500", got)
	}
	if got := l.tail(0.99); got != 1 {
		t.Errorf("median group's p99 = %v, want 1", got)
	}
	if got := l.pooled(0.5); got != 1 {
		t.Errorf("pooled median = %v, want 1", got)
	}
}

func TestMedianSubWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	a := newWindowCounter(start, 10*time.Second)
	b := newWindowCounter(start, 10*time.Second)
	// 100 units in every one-second slice, split over two counters, plus
	// one slice a stall emptied and one a burst doubled: the median
	// slice ignores both.
	for i := 0; i < subWindows; i++ {
		at := start.Add(time.Duration(i)*time.Second + 500*time.Millisecond)
		switch i {
		case 3:
		case 7:
			a.add(at, 200)
		default:
			a.add(at, 60)
			b.add(at, 40)
		}
	}
	a.add(start.Add(-time.Millisecond), 1e6) // before the window
	a.add(start.Add(10*time.Second), 1e6)    // after it
	if got := medianRate(a, b); got != 100 {
		t.Errorf("median sub-window rate = %v, want 100", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, since the acceptance check computes spreads with it.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	sp := spreadOf([]float64{12, 10, 11, 15, 13, 14, 19, 17, 16, 18})
	if sp.q1 != 11.75 || sp.median != 14.5 || sp.q3 != 17.25 {
		t.Errorf("quartiles = %v %v %v, want 11.75 14.5 17.25", sp.q1, sp.median, sp.q3)
	}
	if want := 5.5 / 14.5; math.Abs(sp.rel-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", sp.rel, want)
	}
	// Two values: the cut points fall outside the data and extrapolate.
	sp = spreadOf([]float64{10, 20})
	if sp.q1 != 7.5 || sp.median != 15 || sp.q3 != 22.5 {
		t.Errorf("two-value quartiles = %v %v %v, want 7.5 15 22.5", sp.q1, sp.median, sp.q3)
	}
}

func TestSpanTimesWithParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.op", Op: "nearest", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "member.rtt", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "member.rtt", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "node.handle", Start: 20, End: 30},
		{ID: 5, Parent: 3, Name: "node.handle", Start: 85, End: 95}, // outlives its parent: clipped to 85..90
	}
	trees := analyse(spans)
	if len(trees) != 1 || len(trees[0]) != len(spans) {
		t.Fatalf("trees = %v, want one tree of %d spans", trees, len(spans))
	}
	wantSelf := []float64{20, 40, 45, 10, 5}
	wantExcl := []float64{20, 30, 35, 10, 5}
	var sum float64
	for i, s := range spans {
		if s.SelfNS != wantSelf[i] || s.ExclNS != wantExcl[i] {
			t.Errorf("span %d: self %v excl %v, want %v %v", s.ID, s.SelfNS, s.ExclNS, wantSelf[i], wantExcl[i])
		}
		sum += s.ExclNS
	}
	if sum != 100 {
		t.Errorf("exclusive times sum to %v, want the root's 100", sum)
	}
	byOp, err := ledgers(spans, trees)
	if err != nil {
		t.Fatal(err)
	}
	l := byOp["nearest"]
	if l == nil || l.requests != 1 || l.excl["member.rtt"] != 0.065 || l.nodeSelf != 0.015 {
		t.Errorf("ledger = %+v", l)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(5)), 200, 10*time.Second)
	b := poisson(rand.New(rand.NewSource(5)), 200, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 10 s at 200/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if a[len(a)-1] >= 10*time.Second {
		t.Errorf("arrival outside the span: %v", a[len(a)-1])
	}
}

// testStream builds a small world's stream and the frames of its first
// laps.
func testStream(t *testing.T, seed int64) (*world, *lapStream) {
	t.Helper()
	w, err := genWorld(seed, 12)
	if err != nil {
		t.Fatal(err)
	}
	captured, pc, err := w.capture()
	if err != nil {
		t.Fatal(err)
	}
	if pc.updates == 0 || int64(len(captured)) != pc.updates {
		t.Fatalf("captured %d records of %d updates", len(captured), pc.updates)
	}
	return w, w.buildStream(captured)
}

func TestStreamOrderAndDeterminism(t *testing.T) {
	_, s := testStream(t, 7)
	if len(s.ids) != 12*aliases {
		t.Fatalf("%d object ids", len(s.ids))
	}
	index := make(map[string]int)
	for i, id := range s.ids {
		index[id] = i
	}
	// Two connections over disjoint objects, sharing one seq array.
	seq := make([]uint32, len(s.ids))
	curs := []*cursor{{s: s, seq: seq, mod: 2, rem: 0}, {s: s, seq: seq, mod: 2, rem: 1}}
	lastSeq := make([]uint32, len(s.ids))
	lastT := make([]float64, len(s.ids))
	seen := make([]int, len(s.ids))
	for c, cur := range curs {
		now := math.Inf(-1)
		for n := 0; n < 3*len(s.recs)/2; {
			batch := cur.fill(nil, 64, -1)
			if cur.now < now {
				t.Fatalf("stream time went back: %v after %v", cur.now, now)
			}
			now = cur.now
			for _, r := range batch {
				o := index[r.ID]
				if o%2 != c {
					t.Fatalf("connection %d sent object %d", c, o)
				}
				rep := r.Update.Report
				if rep.Seq <= lastSeq[o] {
					t.Fatalf("object %s: Seq %d after %d", r.ID, rep.Seq, lastSeq[o])
				}
				if seen[o] > 0 && rep.T < lastT[o] {
					t.Fatalf("object %s: report time %v after %v", r.ID, rep.T, lastT[o])
				}
				lastSeq[o], lastT[o] = rep.Seq, rep.T
				seen[o]++
			}
			n += len(batch)
		}
	}
	for o, n := range seen {
		if n < 3 {
			t.Errorf("object %s reported %d times in three laps", s.ids[o], n)
		}
	}

	// The same seed gives the same bytes; another seed does not.
	frame := func(s *lapStream) []byte {
		c := &cursor{s: s, seq: make([]uint32, len(s.ids)), mod: 1}
		return wire.AppendFrame(nil, c.fill(nil, 2*len(s.recs), -1))
	}
	_, again := testStream(t, 7)
	if !bytes.Equal(frame(s), frame(again)) {
		t.Error("the same seed gave two streams")
	}
	_, other := testStream(t, 8)
	if bytes.Equal(frame(s), frame(other)) {
		t.Error("two seeds gave the same stream")
	}
}

// A store fed only the tail of the stream must answer like one fed
// all of it: that is what lets the oracle skip the full replay.
func TestTailReplaysToTheSameState(t *testing.T) {
	w, s := testStream(t, 3)
	cur := &cursor{s: s, seq: make([]uint32, len(s.ids)), mod: 1}
	full, tail := newOracle(w), newOracle(w)
	for n := 0; n < 5*len(s.recs)/2; {
		batch := cur.fill(nil, 100, -1)
		if err := full.feed(batch); err != nil {
			t.Fatal(err)
		}
		n += len(batch)
	}
	if err := tail.feed(cur.tail()); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.ids {
		a, okA := full.ref.Position(locserv.ObjectID(id), cur.now)
		b, okB := tail.ref.Position(locserv.ObjectID(id), cur.now)
		if !okA || !okB || a != b {
			t.Errorf("%s: full %v %v, tail %v %v", id, a, okA, b, okB)
		}
	}
	// The preload's limit stops a cursor exactly at the lap edge.
	pre := &cursor{s: s, seq: make([]uint32, len(s.ids)), mod: 1}
	var n int
	for {
		batch := pre.fill(nil, 7, int64(len(s.recs)))
		if len(batch) == 0 {
			break
		}
		n += len(batch)
	}
	if n != len(s.recs) {
		t.Errorf("one lap sent %d of %d records", n, len(s.recs))
	}
}

func TestParseStat(t *testing.T) {
	line := "4242 (loc server) (v2) S 1 4242 4242 0 -1 4194560 900 0 1 0 " +
		"250 50 0 0 20 0 9 0 123456 734003200 2560 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, rss, err := parseStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3*time.Second || rss != 2560 {
		t.Errorf("cpu %v rss %d pages, want 3s and 2560", cpu, rss)
	}
	if _, _, err := parseStat("1 (x) S 1 2"); err == nil {
		t.Error("a short line parsed")
	}
	if _, _, err := parseStat("garbage"); err == nil {
		t.Error("a line without a name parsed")
	}
	status := "Name:\tx\nvoluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n"
	if got := parseCtxSwitches(status); got != 42 {
		t.Errorf("context switches = %d", got)
	}
	self, err := readUsage(os.Getpid())
	if err != nil || self.rssMB <= 0 {
		t.Errorf("own usage = %+v, %v", self, err)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx_total 3\n" +
		"m_up{member=\"n1\"} 1\nm_up{member=\"n2\"} 1\n" +
		"h_seconds_bucket{le=\"0.5\"} 9\nh_seconds_sum 0.25\nh_seconds_count 10\n"
	before := scrape{m: map[string]float64{"h_seconds_sum": 0.05, "h_seconds_count": 6}}
	after := scrape{m: parseMetrics([]byte(text))}
	if after.m["x_total"] != 3 || after.m["m_up"] != 2 {
		t.Errorf("parsed %v", after.m)
	}
	if _, ok := after.m["h_seconds_bucket"]; ok {
		t.Error("buckets were kept")
	}
	if got := after.meanUS(before, "h_seconds"); math.Abs(got-50000) > 1e-6 {
		t.Errorf("mean = %v us, want 50000", got)
	}
	if got := after.meanUS(after, "h_seconds"); got != 0 {
		t.Errorf("mean over no observations = %v", got)
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics
// and workloads the harness reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the harness:", err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, harness runs %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the file, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: file has %v, harness %v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}
