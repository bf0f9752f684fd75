package sim

import (
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/netsim"
	"mapdr/internal/stats"
	"mapdr/internal/trace"
	"mapdr/internal/wire"
)

// directRunResult is what the pre-refactor Run.Execute measured; the
// replica below reproduces that loop exactly (updates handed straight
// to Server.Apply / pushed through a bare netsim.Link) so the transport
// refactor can be proven bit-identical.
type directRunResult struct {
	updates   int64
	delivered int64
	reasons   map[core.Reason]int64
	errTruth  stats.Welford
	errSensor stats.Welford
	last      core.Report
	hasLast   bool
}

// directRun replicates the pre-refactor source->server loop: no
// wire.Transport, direct Apply (or a bare link when link != nil).
func directRun(truth, sensor *trace.Trace, src *core.Source, srv *core.Server, link *netsim.Link) *directRunResult {
	if sensor == nil {
		sensor = truth
	}
	if link == nil {
		link = netsim.NewPerfect()
	}
	res := &directRunResult{reasons: map[core.Reason]int64{}}
	for i := 0; i < truth.Len(); i++ {
		tt := truth.Samples[i]
		ss := sensor.Samples[i]
		for _, m := range link.Deliverable(ss.T) {
			srv.Apply(m.Payload.(core.Update))
		}
		if u, ok := src.OnSample(trace.Sample{T: ss.T, Pos: ss.Pos}); ok {
			res.updates++
			res.reasons[u.Reason]++
			link.Send(ss.T, u.Report.EncodedSize(), u)
			for _, m := range link.Deliverable(ss.T) {
				srv.Apply(m.Payload.(core.Update))
			}
		}
		if p, ok := srv.Position(ss.T); ok {
			res.errTruth.Add(p.Dist(tt.Pos))
			res.errSensor.Add(p.Dist(ss.Pos))
		}
	}
	res.delivered = srv.Updates()
	res.last, res.hasLast = srv.LastReport()
	return res
}

// TestRunTransportEquivalence: a run through the in-process transport
// (and through the rebased netsim transport) produces bit-identical
// update streams and error statistics to the pre-refactor direct-apply
// path.
func TestRunTransportEquivalence(t *testing.T) {
	truth := sineTrace(20, 1800)
	sensor := trace.ApplyNoise(truth, trace.NewGaussMarkov(3, 4, 30))

	type linkFn func() *netsim.Link
	cases := []struct {
		name string
		link linkFn
	}{
		{"loopback", func() *netsim.Link { return nil }},
		{"lossy-delayed", func() *netsim.Link { return netsim.NewLink(7, 2, 1.5, 0.3) }},
		{"disconnected", func() *netsim.Link {
			l := netsim.NewPerfect()
			l.Disconnections = []netsim.Window{{From: 600, To: 800}}
			return l
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcA, srvA := mkPair(t, 100, core.LinearPredictor{})
			want := directRun(truth, sensor, srcA, srvA, tc.link())

			srcB, srvB := mkPair(t, 100, core.LinearPredictor{})
			got, err := (&Run{Truth: truth, Sensor: sensor, Source: srcB, Server: srvB, Link: tc.link()}).Execute(100)
			if err != nil {
				t.Fatal(err)
			}

			if got.Updates != want.updates || got.Delivered != want.delivered {
				t.Errorf("updates %d/%d, want %d/%d", got.Updates, got.Delivered, want.updates, want.delivered)
			}
			for r, n := range want.reasons {
				if got.ReasonCounts[r] != n {
					t.Errorf("reason %v: %d, want %d", r, got.ReasonCounts[r], n)
				}
			}
			// Error statistics must be bit-identical, not merely close.
			if got.ErrTruth.Mean() != want.errTruth.Mean() || got.ErrTruth.Max() != want.errTruth.Max() ||
				got.ErrTruth.Count() != want.errTruth.Count() {
				t.Errorf("truth error stats diverged: mean %v vs %v, max %v vs %v",
					got.ErrTruth.Mean(), want.errTruth.Mean(), got.ErrTruth.Max(), want.errTruth.Max())
			}
			if got.ErrSensor.Mean() != want.errSensor.Mean() || got.ErrSensor.Max() != want.errSensor.Max() {
				t.Errorf("sensor error stats diverged")
			}
			rep, ok := srvB.LastReport()
			if ok != want.hasLast || rep != want.last {
				t.Errorf("final server report diverged: %+v vs %+v", rep, want.last)
			}
			if want.updates > 0 && got.BytesSent <= 0 {
				t.Errorf("BytesSent = %d for %d updates", got.BytesSent, got.Updates)
			}
		})
	}
}

// TestRunExplicitLoopbackTransport: passing the transport explicitly is
// the same as the nil default.
func TestRunExplicitLoopbackTransport(t *testing.T) {
	truth := sineTrace(20, 900)
	srcA, srvA := mkPair(t, 100, core.LinearPredictor{})
	base, err := (&Run{Truth: truth, Source: srcA, Server: srvA}).Execute(100)
	if err != nil {
		t.Fatal(err)
	}
	srcB, srvB := mkPair(t, 100, core.LinearPredictor{})
	lb := wire.NewLoopback(serverSink{srvB})
	got, err := (&Run{Truth: truth, Source: srcB, Server: srvB, Transport: lb}).Execute(100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Updates != base.Updates || got.ErrTruth.Mean() != base.ErrTruth.Mean() {
		t.Errorf("explicit loopback diverged: %+v vs %+v", got, base)
	}
	if st := lb.Stats(); st.Sent != base.Updates || st.Delivered != base.Updates {
		t.Errorf("transport stats: %+v", st)
	}
}

// directFleetRun replicates the pre-refactor Fleet.Run (sequential,
// batches applied straight to Service.DeliverRecords) for the equivalence
// proof.
func directFleetRun(t *testing.T, svc *locserv.Service, objs []FleetObject) *FleetResult {
	t.Helper()
	type state struct {
		obj  *FleetObject
		next int
	}
	states := make([]*state, len(objs))
	tEnd := math.Inf(-1)
	for i := range objs {
		states[i] = &state{obj: &objs[i]}
		if last := objs[i].Truth.Samples[objs[i].Truth.Len()-1].T; last > tEnd {
			tEnd = last
		}
	}
	res := &FleetResult{Updates: map[locserv.ObjectID]int64{}}
	var errSum float64
	var errN int
	for tt := 0.0; ; tt = math.Min(tt+1, tEnd) {
		for {
			var batch []wire.Record
			var queries []posQuery
			more := false
			for _, st := range states {
				tr := st.obj.Truth
				if st.next >= tr.Len() || tr.Samples[st.next].T > tt {
					continue
				}
				s := tr.Samples[st.next]
				st.next++
				res.Samples++
				if u, ok := st.obj.Source.OnSample(trace.Sample{T: s.T, Pos: s.Pos}); ok {
					batch = append(batch, wire.Record{ID: string(st.obj.ID), Update: u})
				}
				queries = append(queries, posQuery{id: st.obj.ID, t: s.T, truth: s})
				if st.next < tr.Len() && tr.Samples[st.next].T <= tt {
					more = true
				}
			}
			if _, err := svc.DeliverRecords(batch, nil); err != nil {
				t.Fatal(err)
			}
			for _, u := range batch {
				res.Updates[locserv.ObjectID(u.ID)]++
			}
			for _, q := range queries {
				if p, ok := svc.Position(q.id, q.t); ok {
					errSum += p.Dist(q.truth.Pos)
					errN++
				}
			}
			if !more {
				break
			}
		}
		if tt >= tEnd-1e-9 {
			break
		}
	}
	if errN > 0 {
		res.MeanErr = errSum / float64(errN)
	}
	return res
}

// TestFleetTransportEquivalence: a fleet run through the in-process
// transport is bit-identical to the pre-refactor direct-apply path.
func TestFleetTransportEquivalence(t *testing.T) {
	svcA, objsA := mkFleet(t, 5)
	want := directFleetRun(t, svcA, objsA)

	for _, workers := range []int{1, 4} {
		svcB, objsB := mkFleet(t, 5)
		got, err := (&Fleet{Service: svcB, Objects: objsB, Workers: workers}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Samples != want.Samples {
			t.Errorf("workers=%d: samples %d, want %d", workers, got.Samples, want.Samples)
		}
		for id, n := range want.Updates {
			if got.Updates[id] != n {
				t.Errorf("workers=%d %s: %d updates, want %d", workers, id, got.Updates[id], n)
			}
		}
		if workers == 1 {
			if got.MeanErr != want.MeanErr {
				t.Errorf("sequential mean error %v, want bit-identical %v", got.MeanErr, want.MeanErr)
			}
		} else if math.Abs(got.MeanErr-want.MeanErr) > 1e-9 {
			t.Errorf("workers=%d: mean error %v, want %v", workers, got.MeanErr, want.MeanErr)
		}
		var sent int64
		for _, n := range got.Updates {
			sent += n
		}
		if got.Wire.Sent != sent || got.Wire.Delivered != sent || got.Wire.Dropped != 0 {
			t.Errorf("workers=%d: wire stats %+v, sent %d", workers, got.Wire, sent)
		}
	}
}

// mkWeavingFleet builds a fleet whose objects weave (so linear
// prediction keeps triggering updates and server error is non-zero).
func mkWeavingFleet(t *testing.T, n int) (*locserv.Service, []FleetObject) {
	t.Helper()
	svc := locserv.New()
	var objs []FleetObject
	for i := 0; i < n; i++ {
		id := locserv.ObjectID(fmt.Sprintf("weave-%d", i))
		if err := svc.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		src, err := core.NewSource(core.SourceConfig{US: 100, UP: 5, Sightings: 2}, core.LinearPredictor{})
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{}
		for k := 0; k < 600; k++ {
			tt := float64(k)
			tr.Samples = append(tr.Samples, trace.Sample{
				T:   tt,
				Pos: geo.Pt(15*tt, 1000*float64(i)+300*math.Sin(tt/20+float64(i))),
			})
		}
		objs = append(objs, FleetObject{ID: id, Truth: tr, Source: src})
	}
	return svc, objs
}

// TestFleetLossyTransport: rebasing the fleet on a lossy SimLink
// transport drops updates and degrades accuracy, with coherent stats.
func TestFleetLossyTransport(t *testing.T) {
	svcA, objsA := mkWeavingFleet(t, 4)
	clean, err := (&Fleet{Service: svcA, Objects: objsA, Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}

	svcB, objsB := mkWeavingFleet(t, 4)
	lossy := wire.NewSimLink(netsim.NewLink(11, 0, 0, 0.8), svcB.Sink(nil))
	res, err := (&Fleet{Service: svcB, Objects: objsB, Workers: 1, Transport: lossy}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Wire.Dropped == 0 {
		t.Fatal("lossy link dropped nothing")
	}
	if res.Wire.Sent != res.Wire.Delivered+res.Wire.Dropped+int64(lossy.Pending()) {
		t.Errorf("stats do not add up: %+v pending %d", res.Wire, lossy.Pending())
	}
	if res.MeanErr <= clean.MeanErr {
		t.Errorf("loss did not degrade accuracy: %v vs %v", res.MeanErr, clean.MeanErr)
	}
}

// TestFleetHTTPTransport drives the fleet through real HTTP: wire
// frames POSTed to the service's ingest endpoint. Source decisions are
// unaffected (sources keep their reports locally), so the update
// stream matches the loopback run exactly; server-side predictions see
// only float32 rounding of speed/heading from the codec.
func TestFleetHTTPTransport(t *testing.T) {
	svcA, objsA := mkFleet(t, 4)
	base, err := (&Fleet{Service: svcA, Objects: objsA, Workers: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}

	svcB, objsB := mkFleet(t, 4)
	ts := httptest.NewServer(locserv.NewNodeService(svcB, nil).Handler())
	defer ts.Close()
	cl := wire.NewClient(ts.URL, ts.Client())
	res, err := (&Fleet{Service: svcB, Objects: objsB, Workers: 1, Transport: cl}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != base.Samples {
		t.Errorf("samples %d, want %d", res.Samples, base.Samples)
	}
	for id, n := range base.Updates {
		if res.Updates[id] != n {
			t.Errorf("%s: %d updates, want %d", id, res.Updates[id], n)
		}
	}
	if math.Abs(res.MeanErr-base.MeanErr) > 1e-2 {
		t.Errorf("mean error over HTTP %v, want ~%v", res.MeanErr, base.MeanErr)
	}
	if res.Wire.Frames == 0 || res.Wire.FrameBytes == 0 {
		t.Errorf("no frames counted: %+v", res.Wire)
	}
	if svcB.UpdatesApplied() == 0 {
		t.Error("ingest endpoint applied nothing")
	}
}
