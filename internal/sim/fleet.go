package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/trace"
	"mapdr/internal/wire"
)

// FleetObject is one tracked mobile object in a fleet simulation.
type FleetObject struct {
	ID     locserv.ObjectID
	Truth  *trace.Trace // ground truth (used for error accounting)
	Sensor *trace.Trace // what the device observes; nil = Truth
	Source *core.Source
}

// FleetResult summarises a fleet run.
type FleetResult struct {
	Samples int
	Updates map[locserv.ObjectID]int64
	// MeanErr is the time-averaged server error vs ground truth across
	// all objects.
	MeanErr float64
	// Wire is the transport's traffic accounting: records and encoded
	// bytes sent, delivered and dropped on the way to the service.
	Wire wire.Stats
}

// Fleet drives many objects' protocol sources against one location
// service in simulation-time lockstep, so queries issued from the Tick
// callback see exactly the updates a live service would have received by
// that time.
//
// Updates travel through a wire.Transport. The default is the
// in-process loopback into the service's batched DeliverRecords path —
// bit-identical to applying the batches directly. A SimLink transport
// adds latency/loss between the fleet and the service; an HTTP client
// transport drives a real location server over the network (the
// service is then queried remotely too, but error accounting still
// reads f.Service directly, so point it at the same store).
//
// Within each clock step the objects are partitioned across a pool of
// Workers goroutines. Each round, every worker consumes at most one due
// sample per object and collects the triggered updates; the round's
// updates are sent through the transport and flushed at the round time,
// and the workers then query the service concurrently for error
// accounting. Because an object's error query for sample k runs after
// the round that applied its own update for sample k — and before any
// later one — the per-object accounting is identical to stepping that
// object's source and replica alone, for any Step and worker count.
//
// Both prediction evaluations a step performs — the source-side
// deviation check inside OnSample and the service Position query for
// error accounting — advance monotonically in simulation time, so they
// ride the prediction cursors (core.Cursor) memoized in each source and
// server replica: per-sample cost stays O(1) however long the protocol
// keeps an object's radio quiet.
type Fleet struct {
	// Service is the in-process location store. It may be nil when both
	// Transport and Query are set — the cluster configuration, where
	// updates and error-accounting queries go through a coordinator
	// instead of a local store.
	Service *locserv.Service
	// Query answers the per-sample error-accounting Position queries;
	// nil uses Service. Point it at a cluster coordinator (with
	// Transport set to the same coordinator) to drive a scatter-gather
	// cluster with the identical simulation.
	Query   locserv.Querier
	Objects []FleetObject
	// Tick, when set, is invoked once per simulated second after all due
	// updates have been applied. It runs on the coordinating goroutine.
	Tick func(t float64)
	// Step is the clock step in seconds (default 1).
	Step float64
	// Workers is the number of goroutines stepping sources and querying
	// the service. 0 selects runtime.GOMAXPROCS(0); 1 runs sequentially.
	Workers int
	// Transport carries each round's update batch to the location
	// service; nil uses the in-process loopback into Service.
	Transport wire.Transport
}

// fleetState is the per-object cursor into its sample stream.
type fleetState struct {
	obj    *FleetObject
	sensor *trace.Trace
	next   int
}

// posQuery is a deferred error-accounting query: after the step's batch
// has been applied, the server's answer at time t is compared to truth.
type posQuery struct {
	id    locserv.ObjectID
	t     float64
	truth trace.Sample
}

// fleetWorker owns a partition of the objects plus all per-step scratch
// state, so the parallel phases run without any shared mutation.
type fleetWorker struct {
	states  []*fleetState
	batch   []wire.Record
	queries []posQuery
	more    bool // a state still has samples due in the current step
	samples int
	errSum  float64
	errN    int
}

// Run executes the fleet simulation until every object's trace is
// exhausted.
func (f *Fleet) Run() (*FleetResult, error) {
	query := f.Query
	if query == nil {
		if f.Service == nil {
			return nil, fmt.Errorf("sim: fleet needs a service or a query target")
		}
		query = f.Service
	}
	if len(f.Objects) == 0 {
		return nil, fmt.Errorf("sim: fleet has no objects")
	}
	step := f.Step
	if step <= 0 {
		step = 1
	}
	tr := f.Transport
	if tr == nil {
		if f.Service == nil {
			return nil, fmt.Errorf("sim: fleet needs a service or a transport")
		}
		tr = wire.NewLoopback(f.Service.Sink(nil))
	}
	states := make([]*fleetState, len(f.Objects))
	tEnd := math.Inf(-1)
	for i := range f.Objects {
		o := &f.Objects[i]
		if o.Truth == nil || o.Truth.Len() == 0 {
			return nil, fmt.Errorf("sim: object %q has no truth trace", o.ID)
		}
		sensor := o.Sensor
		if sensor == nil {
			sensor = o.Truth
		}
		if sensor.Len() != o.Truth.Len() {
			return nil, fmt.Errorf("sim: object %q sensor/truth misaligned", o.ID)
		}
		states[i] = &fleetState{obj: o, sensor: sensor}
		if last := o.Truth.Samples[o.Truth.Len()-1].T; last > tEnd {
			tEnd = last
		}
	}

	nw := f.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > len(states) {
		nw = len(states)
	}
	// Round-robin partition: object i belongs to worker i%nw, so the
	// assignment (and thus the result) is deterministic for a fixed
	// worker count.
	workers := make([]*fleetWorker, nw)
	for w := range workers {
		workers[w] = &fleetWorker{}
	}
	for i, st := range states {
		w := workers[i%nw]
		w.states = append(w.states, st)
	}

	res := &FleetResult{Updates: map[locserv.ObjectID]int64{}}
	var errSum float64
	var errN int
	// The clock's final step is clamped to tEnd so the trailing partial
	// step (when step does not divide tEnd) still consumes every sample.
	for t := 0.0; ; t = math.Min(t+step, tEnd) {
		// Sub-step rounds: each round consumes at most one due sample per
		// object, so an object's error query never observes one of its own
		// later-in-the-step updates. With samples no denser than the clock
		// step (the common case) a step is exactly one round.
		for {
			// Phase 1: advance every source by one due sample.
			runOnWorkers(workers, func(w *fleetWorker) {
				w.batch = w.batch[:0]
				w.queries = w.queries[:0]
				w.more = false
				for _, st := range w.states {
					if st.next >= st.sensor.Len() || st.sensor.Samples[st.next].T > t {
						continue
					}
					s := st.sensor.Samples[st.next]
					truth := st.obj.Truth.Samples[st.next]
					st.next++
					w.samples++
					if u, ok := st.obj.Source.OnSample(trace.Sample{T: s.T, Pos: s.Pos}); ok {
						w.batch = append(w.batch, wire.Record{ID: string(st.obj.ID), Update: u})
					}
					w.queries = append(w.queries, posQuery{id: st.obj.ID, t: s.T, truth: truth})
					if st.next < st.sensor.Len() && st.sensor.Samples[st.next].T <= t {
						w.more = true
					}
				}
			})

			// Ship the round's updates through the transport and deliver
			// everything due by the round time; for the loopback default
			// this is one batched DeliverRecords, one lock acquisition per
			// shard for the whole round.
			var batch []wire.Record
			more := false
			for _, w := range workers {
				batch = append(batch, w.batch...)
				more = more || w.more
			}
			if err := tr.Send(t, batch); err != nil {
				return nil, err
			}
			if err := tr.Flush(t); err != nil {
				return nil, err
			}
			for i := range batch {
				res.Updates[locserv.ObjectID(batch[i].ID)]++
			}

			// Phase 2: concurrent error-accounting queries against the
			// freshly updated service.
			runOnWorkers(workers, func(w *fleetWorker) {
				for _, q := range w.queries {
					if p, ok := query.Position(q.id, q.t); ok {
						w.errSum += p.Dist(q.truth.Pos)
						w.errN++
					}
				}
			})
			if !more {
				break
			}
		}

		if f.Tick != nil {
			f.Tick(t)
		}
		if t >= tEnd-1e-9 {
			break
		}
	}
	for _, w := range workers {
		res.Samples += w.samples
		errSum += w.errSum
		errN += w.errN
	}
	if errN > 0 {
		res.MeanErr = errSum / float64(errN)
	}
	res.Wire = tr.Stats()
	return res, nil
}

// runOnWorkers executes fn on every worker, concurrently when there is
// more than one.
func runOnWorkers(workers []*fleetWorker, fn func(*fleetWorker)) {
	if len(workers) == 1 {
		fn(workers[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(workers))
	for _, w := range workers {
		go func(w *fleetWorker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
