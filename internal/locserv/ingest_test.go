package locserv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/netsim"
	"mapdr/internal/wire"
)

func ingestRecord(id string, seq uint32, t float64, pos geo.Point) wire.Record {
	return wire.Record{ID: id, Update: core.Update{
		Reason: core.ReasonDeviation,
		Report: core.Report{Seq: seq, T: t, Pos: pos, V: 10},
	}}
}

func TestDeliverRecords(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	recs := []wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(1, 2)),
		ingestRecord("ghost", 1, 0, geo.Pt(3, 4)),
		{ID: "", Update: core.Update{Report: core.Report{Seq: 1}}},
	}
	applied, err := s.DeliverRecords(recs, nil)
	if applied != 1 {
		t.Fatalf("applied = %d, want 1", applied)
	}
	if err == nil || !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "no object id") {
		t.Fatalf("err = %v", err)
	}
	if pos, ok := s.Position("car1", 0); !ok || pos != geo.Pt(1, 2) {
		t.Fatalf("car1 position: %v %v", pos, ok)
	}
	if s.UpdatesApplied() != 1 {
		t.Fatalf("UpdatesApplied = %d", s.UpdatesApplied())
	}
	if want := int64(recs[0].Update.Report.EncodedSize()); s.WireBytes() != want {
		t.Fatalf("WireBytes = %d, want %d", s.WireBytes(), want)
	}

	// Auto-register admits the unknown object and can reject by id.
	auto := func(id ObjectID) core.Predictor {
		if strings.HasPrefix(string(id), "car") {
			return core.LinearPredictor{}
		}
		return nil
	}
	applied, err = s.DeliverRecords([]wire.Record{
		ingestRecord("car2", 1, 0, geo.Pt(5, 6)),
		ingestRecord("intruder", 1, 0, geo.Pt(7, 8)),
	}, auto)
	if applied != 1 || err == nil {
		t.Fatalf("auto: applied = %d, err = %v", applied, err)
	}
	if !s.Contains("car2") || s.Contains("intruder") {
		t.Fatal("auto-register admitted the wrong objects")
	}

	// Stale duplicates count as delivered-to-replica but not applied.
	if _, err := s.DeliverRecords([]wire.Record{ingestRecord("car1", 1, 0, geo.Pt(9, 9))}, nil); err != nil {
		t.Fatal(err)
	}
	if s.UpdatesApplied() != 2 {
		t.Fatalf("stale delivery changed UpdatesApplied: %d", s.UpdatesApplied())
	}
}

func TestHTTPIngestEndToEnd(t *testing.T) {
	s := NewSharded(4)
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeService(s, func(ObjectID) core.Predictor {
		return core.LinearPredictor{}
	}).Handler())
	defer ts.Close()

	// Drive the client transport against the real endpoint.
	cl := wire.NewClient(ts.URL, ts.Client())
	batch := []wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(0, 0)),
		ingestRecord("car2", 1, 0, geo.Pt(100, 100)),
		ingestRecord("car1", 2, 10, geo.Pt(10, 0)),
	}
	if err := cl.Send(0, batch); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Sent != 3 || st.Delivered != 3 || st.Frames != 1 {
		t.Fatalf("client stats: %+v", st)
	}
	if pos, ok := s.Position("car2", 0); !ok || pos != geo.Pt(100, 100) {
		t.Fatalf("car2: %v %v", pos, ok)
	}
	if pos, ok := s.Position("car1", 10); !ok || pos != geo.Pt(10, 0) {
		t.Fatalf("car1: %v %v", pos, ok)
	}

	// /stats reflects the ingest.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Objects        int   `json:"objects"`
		Shards         int   `json:"shards"`
		UpdatesApplied int64 `json:"updates_applied"`
		WireBytes      int64 `json:"wire_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Objects != 2 || stats.Shards != 4 || stats.UpdatesApplied != 3 || stats.WireBytes == 0 {
		t.Fatalf("stats: %+v", stats)
	}

	// /healthz answers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		OK      bool `json:"ok"`
		Objects int  `json:"objects"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Objects != 2 {
		t.Fatalf("healthz: %+v", health)
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()

	post := func(body []byte, ct string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/updates", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Corrupt frame -> 400.
	resp := post([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0}, wire.ContentType)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame -> %d", resp.StatusCode)
	}

	// Wrong content type -> 415.
	frame, _ := wire.EncodeFrame([]wire.Record{ingestRecord("car1", 1, 0, geo.Pt(0, 0))})
	resp = post(frame, "text/plain")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("wrong content type -> %d", resp.StatusCode)
	}

	// Unknown object without auto-register: 200 with an error count.
	frame2, _ := wire.EncodeFrame([]wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(0, 0)),
		ingestRecord("ghost", 1, 0, geo.Pt(0, 0)),
	})
	resp = post(frame2, wire.ContentType)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial ingest -> %d", resp.StatusCode)
	}
	var ir wire.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Records != 2 || ir.Applied != 1 || ir.Errors != 1 {
		t.Fatalf("ingest response: %+v", ir)
	}

	// GET /updates is not a route.
	gresp, err := http.Get(ts.URL + "/updates")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode == http.StatusOK {
		t.Fatalf("GET /updates -> %d", gresp.StatusCode)
	}
}

// TestHTTPIngestRefusesNonFinite posts a record whose position is NaN
// beside a good one: the store refuses it with a per-record error, and
// /nearest keeps answering 200 without the object.
func TestHTTPIngestRefusesNonFinite(t *testing.T) {
	s := New()
	for _, id := range []ObjectID{"car1", "car2"} {
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()

	frame, err := wire.EncodeFrame([]wire.Record{
		ingestRecord("car1", 1, 0, geo.Pt(3, 4)),
		ingestRecord("car2", 1, 0, geo.Pt(math.NaN(), 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/updates", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir wire.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ir.Records != 2 || ir.Applied != 1 || ir.Errors != 1 {
		t.Fatalf("ingest -> %d %+v, want 200 with 1 applied and 1 error", resp.StatusCode, ir)
	}

	nresp, err := http.Get(ts.URL + "/nearest?x=0&y=0&k=3&t=1")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Fatalf("/nearest -> %d after a NaN record", nresp.StatusCode)
	}
	var hits []posJSON
	if err := json.NewDecoder(nresp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "car1" {
		t.Fatalf("/nearest = %+v, want car1 alone", hits)
	}
}

// TestIngestRefusesNonFiniteFields refuses a record with any one
// non-finite report field, on the batched and the single write, and
// keeps such a record from registering its object.
func TestIngestRefusesNonFiniteFields(t *testing.T) {
	bad := map[string]func(*core.Report, float64){
		"T":           func(r *core.Report, x float64) { r.T = x },
		"Pos.X":       func(r *core.Report, x float64) { r.Pos.X = x },
		"Pos.Y":       func(r *core.Report, x float64) { r.Pos.Y = x },
		"V":           func(r *core.Report, x float64) { r.V = x },
		"Heading":     func(r *core.Report, x float64) { r.Heading = x },
		"Offset":      func(r *core.Report, x float64) { r.Offset = x },
		"RouteOffset": func(r *core.Report, x float64) { r.RouteOffset = x },
		"Omega":       func(r *core.Report, x float64) { r.Omega = x },
	}
	auto := func(ObjectID) core.Predictor { return core.LinearPredictor{} }
	for field, set := range bad {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := New()
			rec := ingestRecord("car1", 1, 0, geo.Pt(1, 1))
			set(&rec.Update.Report, x)
			applied, err := s.DeliverRecords([]wire.Record{rec}, auto)
			if applied != 0 || ingestErrCount(err) != 1 || s.Contains("car1") {
				t.Errorf("%s=%v: DeliverRecords applied %d, err %v, registered %v", field, x, applied, err, s.Contains("car1"))
			}
			if err := s.Register("car1", core.LinearPredictor{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply("car1", rec.Update); err == nil {
				t.Errorf("%s=%v: Apply accepted the report", field, x)
			}
			if _, ok := s.Position("car1", 1); ok {
				t.Errorf("%s=%v: the refused report answers a position", field, x)
			}
		}
	}
}

// ingestErrCount is the number of records an ingest error reports: the
// leaves of its errors.Join.
func ingestErrCount(err error) int {
	if err == nil {
		return 0
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return len(j.Unwrap())
	}
	return 1
}

// deliverOneAtATime is the reference for DeliverRecords: each record on
// its own, registering an unknown id through auto and then applying.
func deliverOneAtATime(t *testing.T, ref *Service, recs []wire.Record, auto AutoRegister) (applied, errs int) {
	t.Helper()
	for _, r := range recs {
		id := ObjectID(r.ID)
		if id == "" {
			errs++
			continue
		}
		if !ref.Contains(id) {
			var pred core.Predictor
			if auto != nil {
				pred = auto(id)
			}
			if pred == nil {
				errs++
				continue
			}
			if err := ref.Register(id, pred); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Apply(id, r.Update); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	return applied, errs
}

// deliverBoth delivers recs to s in one DeliverRecords call and to ref
// one record at a time, and requires the same applied and error counts.
func deliverBoth(t *testing.T, s, ref *Service, recs []wire.Record, auto AutoRegister) error {
	t.Helper()
	applied, err := s.DeliverRecords(recs, auto)
	wantApplied, wantErrs := deliverOneAtATime(t, ref, recs, auto)
	if applied != wantApplied || ingestErrCount(err) != wantErrs {
		t.Fatalf("batch of %d: applied %d, %d errors (%v); one at a time: applied %d, %d errors",
			len(recs), applied, ingestErrCount(err), err, wantApplied, wantErrs)
	}
	return err
}

// requireSameStore requires got to answer every query bit-identically
// to want at each of times.
func requireSameStore(t *testing.T, got, want *Service, ids []ObjectID, times []float64) {
	t.Helper()
	if got.Len() != want.Len() || got.UpdatesApplied() != want.UpdatesApplied() || got.WireBytes() != want.WireBytes() {
		t.Fatalf("len/applied/bytes %d/%d/%d, want %d/%d/%d", got.Len(), got.UpdatesApplied(), got.WireBytes(),
			want.Len(), want.UpdatesApplied(), want.WireBytes())
	}
	if g, w := got.Objects(), want.Objects(); !reflect.DeepEqual(g, w) {
		t.Fatalf("objects %v, want %v", g, w)
	}
	points := []geo.Point{{}, {X: 2500, Y: 2500}, {X: 5000, Y: -1000}}
	rects := []geo.Rect{
		{Min: geo.Pt(0, 0), Max: geo.Pt(2500, 2500)},
		{Min: geo.Pt(-1e6, -1e6), Max: geo.Pt(1e6, 1e6)},
	}
	for _, qt := range times {
		for _, id := range ids {
			p, seq, ok := got.PositionSeq(id, qt)
			wp, wseq, wok := want.PositionSeq(id, qt)
			if p != wp || seq != wseq || ok != wok {
				t.Fatalf("Position(%s, t=%v) = %v/%d/%v, want %v/%d/%v", id, qt, p, seq, ok, wp, wseq, wok)
			}
		}
		for _, p := range points {
			for _, k := range []int{1, 5, want.Len() + 3} {
				if g, w := got.Nearest(p, k, qt), want.Nearest(p, k, qt); !reflect.DeepEqual(g, w) {
					t.Fatalf("Nearest(%v, %d, t=%v)\n got %v\nwant %v", p, k, qt, g, w)
				}
			}
		}
		for _, r := range rects {
			if g, w := got.Within(r, qt), want.Within(r, qt); !reflect.DeepEqual(g, w) {
				t.Fatalf("Within(%v, t=%v)\n got %v\nwant %v", r, qt, g, w)
			}
		}
	}
}

// TestDeliverRecordsMatchesOneAtATime checks the store's one batched
// write against Register + Apply one record at a time: the applied and
// error counts of every batch, and the store's answers afterwards.
func TestDeliverRecordsMatchesOneAtATime(t *testing.T) {
	t.Run("unknown-ids", func(t *testing.T) {
		s, ref := NewSharded(8), New()
		if applied, err := s.DeliverRecords(nil, nil); applied != 0 || err != nil {
			t.Errorf("empty batch: applied %d, err %v", applied, err)
		}
		for _, st := range []*Service{s, ref} {
			if err := st.Register("known", core.StaticPredictor{}); err != nil {
				t.Fatal(err)
			}
		}
		err := deliverBoth(t, s, ref, []wire.Record{
			{ID: "ghost-1", Update: core.Update{Report: core.Report{Seq: 1}}},
			{ID: "known", Update: core.Update{Report: core.Report{Seq: 1, Pos: geo.Pt(7, 7)}}},
			{ID: "ghost-2", Update: core.Update{Report: core.Report{Seq: 1}}},
		}, nil)
		if err == nil {
			t.Fatal("unknown ids should surface an error")
		}
		for _, ghost := range []string{"ghost-1", "ghost-2"} {
			if !strings.Contains(err.Error(), ghost) {
				t.Errorf("error %q does not name %s", err, ghost)
			}
		}
		// The known object's update must still have landed.
		if p, ok := s.Position("known", 0); !ok || p.Dist(geo.Pt(7, 7)) > 1e-9 {
			t.Errorf("known object not updated: %v %v", p, ok)
		}
		requireSameStore(t, s, ref, []ObjectID{"known", "ghost-1"}, []float64{0})
	})

	// A batch may carry several updates for one object; only forward
	// sequence numbers take effect, as with Apply.
	t.Run("stale-seq", func(t *testing.T) {
		s, ref := NewSharded(2), New()
		for _, st := range []*Service{s, ref} {
			if err := st.Register("car", core.StaticPredictor{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := deliverBoth(t, s, ref, []wire.Record{
			{ID: "car", Update: core.Update{Report: core.Report{Seq: 5, Pos: geo.Pt(5, 0)}}},
			{ID: "car", Update: core.Update{Report: core.Report{Seq: 3, Pos: geo.Pt(3, 0)}}},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if p, ok := s.Position("car", 0); !ok || p.X != 5 {
			t.Errorf("stale seq overwrote newer report: %v %v", p, ok)
		}
		requireSameStore(t, s, ref, []ObjectID{"car"}, []float64{0})
	})

	// A seeded stream of registered ids, new ids auto admits, ids it
	// rejects, empty ids and stale or duplicate Seqs, delivered in random
	// batch splits, some batches without auto.
	preds := []core.Predictor{core.LinearPredictor{}, core.CTRVPredictor{}, core.StaticPredictor{}}
	auto := func(id ObjectID) core.Predictor {
		if strings.HasPrefix(string(id), "bad-") {
			return nil
		}
		return preds[len(id)%len(preds)]
	}
	rng := rand.New(rand.NewSource(39))
	seqs := map[string]uint32{}
	var ids []ObjectID
	for i := 0; i < 12; i++ {
		ids = append(ids, ObjectID(fmt.Sprintf("reg-%d", i*7)), ObjectID(fmt.Sprintf("new-%d", i*7)), ObjectID(fmt.Sprintf("bad-%d", i)))
	}
	stream := make([]wire.Record, 1500)
	for i := range stream {
		var id string
		if rng.Intn(12) > 0 {
			id = string(ids[rng.Intn(len(ids))])
		}
		seq := seqs[id] + 1
		if rng.Intn(4) == 0 {
			seq = uint32(rng.Intn(int(seq) + 1)) // stale or duplicate
		}
		seqs[id] = max(seqs[id], seq)
		stream[i] = wire.Record{ID: id, Update: core.Update{Reason: core.ReasonDeviation, Report: core.Report{
			Seq: seq, T: float64(i) / 10, Pos: geo.Pt(rng.Float64()*5000, rng.Float64()*5000),
			V: rng.Float64() * 30, Heading: rng.Float64() * 2 * math.Pi, Omega: rng.Float64()*0.2 - 0.1,
		}}}
	}
	for _, shards := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("seeded/shards-%d", shards), func(t *testing.T) {
			s, ref := NewSharded(shards), New()
			for _, id := range ids {
				if strings.HasPrefix(string(id), "reg-") {
					for _, st := range []*Service{s, ref} {
						if err := st.Register(id, preds[len(id)%len(preds)]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			split := rand.New(rand.NewSource(int64(shards)))
			for lo := 0; lo < len(stream); {
				hi := min(lo+split.Intn(64), len(stream))
				batchAuto := auto
				if split.Intn(4) == 0 {
					batchAuto = nil
				}
				deliverBoth(t, s, ref, stream[lo:hi], batchAuto)
				lo = hi
			}
			requireSameStore(t, s, ref, ids, []float64{0, 75, 150, 400})
		})
	}
}

// TestDeliverRecordsConcurrentAutoRegister races four deliverers over
// the same new ids: each id is registered once, and auto runs once per
// id.
func TestDeliverRecordsConcurrentAutoRegister(t *testing.T) {
	const nIDs, deliverers, batchLen = 200, 4, 20
	s := New()
	var calls atomic.Int64
	auto := func(ObjectID) core.Predictor {
		calls.Add(1)
		return core.LinearPredictor{}
	}
	var wg sync.WaitGroup
	for g := 0; g < deliverers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			perm := rand.New(rand.NewSource(int64(g))).Perm(nIDs)
			for lo := 0; lo < nIDs; lo += batchLen {
				batch := make([]wire.Record, 0, batchLen)
				for _, i := range perm[lo : lo+batchLen] {
					batch = append(batch, ingestRecord(fmt.Sprintf("obj-%03d", i), uint32(g+1), 0, geo.Pt(float64(i), 0)))
				}
				if applied, err := s.DeliverRecords(batch, auto); applied != len(batch) || err != nil {
					t.Errorf("deliverer %d: applied %d of %d, err %v", g, applied, len(batch), err)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != nIDs || calls.Load() != nIDs {
		t.Fatalf("Len() = %d, auto ran %d times; want %d and %d", s.Len(), calls.Load(), nIDs, nIDs)
	}
}

// TestDeliverRecordsAllocs pins the batched write's allocations: once
// warm, a 512-record delivery into registered objects on a 16-shard
// store allocates nothing — its shard sort reuses pooled scratch.
func TestDeliverRecordsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const nRecs = 512
	s := New()
	batch := make([]wire.Record, nRecs)
	for i := range batch {
		id := fmt.Sprintf("veh-%03d", i)
		if err := s.Register(ObjectID(id), core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		batch[i] = ingestRecord(id, 1, 0, geo.Pt(float64(i%32)*100, float64(i/32)*100))
	}
	seq := uint32(0)
	deliver := func() {
		seq++
		for i := range batch {
			batch[i].Update.Report.Seq = seq
		}
		if applied, err := s.DeliverRecords(batch, nil); applied != nRecs || err != nil {
			t.Fatalf("applied %d, err %v", applied, err)
		}
	}
	deliver() // every object's first report enters the index
	if avg := testing.AllocsPerRun(20, deliver); avg != 0 {
		t.Fatalf("one %d-record DeliverRecords allocates %.1f objects, want 0", nRecs, avg)
	}
}

// TestTransportsCountPartlyRejectedBatch: an in-process transport counts
// a record delivered once it hands it to the store, whether or not the
// store knows the object, so Sent == Delivered + Dropped for a batch the
// store partly rejects. The sink's error still reaches the sender where
// the transport carries one.
func TestTransportsCountPartlyRejectedBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		open    func(*Service) wire.Transport
		wantErr bool
	}{
		{"loopback", func(s *Service) wire.Transport { return wire.NewLoopback(s.Sink(nil)) }, true},
		{"simlink", func(s *Service) wire.Transport {
			return wire.NewSimLink(netsim.NewLink(1, 0, 0, 0), s.Sink(nil))
		}, true},
		// The stream's acknowledgement carries the applied count only.
		{"stream", func(s *Service) wire.Transport {
			return wire.NewStreamLoopback(wire.StreamServer{Deliver: func(recs []wire.Record) (int, error) {
				return s.DeliverRecords(recs, nil)
			}})
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			if err := s.Register("car1", core.LinearPredictor{}); err != nil {
				t.Fatal(err)
			}
			tr := tc.open(s)
			batch := []wire.Record{ingestRecord("car1", 1, 0, geo.Pt(1, 2)), ingestRecord("ghost", 1, 0, geo.Pt(3, 4))}
			err := errors.Join(tr.Send(0, batch), tr.Flush(0))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if s.UpdatesApplied() != 1 {
				t.Fatalf("UpdatesApplied = %d, want 1", s.UpdatesApplied())
			}
			st := tr.Stats()
			if st.Sent != 2 || st.Sent != st.Delivered+st.Dropped || st.BytesSent != st.BytesDelivered {
				t.Fatalf("stats %+v: want Sent 2 == Delivered + Dropped, bytes alike", st)
			}
		})
	}
}
