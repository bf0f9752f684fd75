package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mapdr/internal/wire"
)

// The open-loop workload's fixed offered rates, per second. The hi step
// keeps each connection about a quarter busy on the 2-core calibration
// box (see CALIBRATION.md): queueing amplifies the box's speed swings
// into the tail, and higher rates did not repeat.
const (
	loFramesPerS  = 40
	loQueriesPerS = 20
	hiFramesPerS  = 150
	hiQueriesPerS = 75
	loShare       = 0.2 // of the measured window; the rest is the hi step
	maxBacklog    = time.Second
	verifyEvery   = 50 // every n-th recorded answer is checked against the oracle
	verifyIDs     = 200
	verifyQueries = 50 // per scatter kind, after the window
)

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only possible with a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setMedian and setTail record a latency set's pooled median and its
// median group's q-quantile under the given metric names.
func setMedian(res *result, name string, lat latencies) { res.set(name, lat.pooled(0.5), lat.len()) }
func setTail(res *result, name string, q float64, lat latencies) {
	res.set(name, lat.tail(q), lat.len())
}

// setOpLatency records the workload's operation latency: the gated
// median and p90, and beside them p95, p99 and, when at least ten
// samples lie beyond it, the pooled p99.9. p90 is the gated tail because
// it is the highest percentile whose run-to-run spread stays inside the
// 25 % a bound may be on the calibration box (CALIBRATION.md).
func setOpLatency(res *result, lat latencies) {
	setMedian(res, "op_p50_ms", lat)
	setTail(res, "op_p90_ms", 0.90, lat)
	setTail(res, "op_p95_ms", 0.95, lat)
	setTail(res, "op_p99_ms", 0.99, lat)
	if lat.len() >= 10000 {
		res.set("op_p999_ms", lat.pooled(0.999), lat.len())
	}
}

// setProtocol records the paper's Table-1 quantities of the seed's
// fleet pass.
func setProtocol(res *result, w *world, pc protocolCounts) {
	res.set("updates_per_obj_h", float64(pc.updates)/w.hours, pc.updates)
	res.set("wire_bytes_per_obj_h", float64(pc.bytes)/w.hours, pc.updates)
	res.set("mean_err_m", pc.meanErr, int64(pc.samples))
}

// runProtocolCity is the paper's evaluation path, in process and with
// no sockets: the generated vehicles driven through sim.Fleet into one
// locserv.Service over wire.Loopback, pass after pass with fresh
// sources and a fresh store, median pass reported.
func runProtocolCity(ctx context.Context, _ *procGroup, cfg config) (*result, error) {
	res := newResult(cfg.workload)
	start := time.Now()
	w, err := genWorld(cfg.seed, fleetN)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(start).Seconds(), 1)

	var (
		first    protocolCounts
		rates    []float64
		steps    latencies
		samples  int64
		cpuStart = selfCPU()
		deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	)
	// At least three passes, so the median is one; a pass takes ~1.3 s.
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		last := time.Now()
		pc, dur, err := w.runPass(nil, func(float64) {
			now := time.Now()
			steps.add(now.Sub(last), pass)
			last = now
		})
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			first = pc
		} else if pc != first {
			res.problem("pass %d counted %+v, pass 0 counted %+v: the protocol is not deterministic", pass, pc, first)
		}
		rates = append(rates, float64(pc.samples)/dur.Seconds())
		samples += int64(pc.samples)
	}
	cpu := selfCPU() - cpuStart
	res.count(int64(len(rates)), 0)
	res.set("ops_per_s", median(rates), int64(len(rates)))
	res.set("samples_per_s", median(rates), int64(len(rates)))
	setOpLatency(res, steps)
	res.set("server_cpu_us_per_op", float64(cpu.Nanoseconds())/1e3/float64(samples), samples)
	setProtocol(res, w, first)
	res.set("failed_share", 0, res.attempted)
	res.set("gen.cpu_share", 1, 1)
	if cfg.traced {
		captured, _, err := w.capture()
		if err != nil {
			return nil, err
		}
		if _, err := stageLedger(ctx, res, w, captured, w.buildStream(captured), cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ingestLoop is one connection's closed loop of 512-record frames until the
// deadline: the next frame is sent when the previous one is acked.
func ingestLoop(ctx context.Context, c *conn, cur *cursor, until time.Time, wc *windowCounter, lat *latencies) (frames, failed int64) {
	var buf []wire.Record
	for ctx.Err() == nil {
		start := time.Now()
		if !start.Before(until) {
			break
		}
		buf = cur.fill(buf[:0], frameBatched, -1)
		err := c.send(buf)
		end := time.Now()
		frames++
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "bench: ingest:", err)
			continue
		}
		lat.add(end.Sub(start), wc.index(end))
		wc.add(end, float64(len(buf)))
	}
	return frames, failed
}

// runIngestBatched is the writes-only closed loop: both connections
// send 512-record frames back to back.
func runIngestBatched(ctx context.Context, procs *procGroup, cfg config) (*result, error) {
	e, err := setupSockets(ctx, procs, cfg)
	if err != nil {
		return nil, err
	}
	before, err := e.probe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	until := start.Add(e.window())
	var (
		wg     sync.WaitGroup
		wcs    [2]*windowCounter
		lats   [2]latencies
		frames [2]int64
		failed [2]int64
	)
	for i := range e.conns {
		wcs[i] = newWindowCounter(start, e.window())
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i], failed[i] = ingestLoop(ctx, e.conns[i], e.cur[i], until, wcs[i], &lats[i])
		}()
	}
	wg.Wait()
	after, err := e.probe()
	if err != nil {
		return nil, err
	}
	acks := lats[0]
	acks.merge(lats[1])
	e.res.count(frames[0]+frames[1], failed[0]+failed[1])
	rate := medianRate(wcs[:]...)
	e.res.set("ops_per_s", rate, subWindows)
	e.res.set("updates_per_s", rate, subWindows)
	setOpLatency(e.res, acks)
	setMedian(e.res, "ack_p50_ms", acks)
	setTail(e.res, "ack_p99_ms", 0.99, acks)
	records := acks.len() * frameBatched
	e.account(before, after, records)
	e.res.set("server_cpu_us_per_update", e.res.metrics["server_cpu_us_per_op"].value, records)
	return e.finish(ctx, nil)
}

// queryStats is what one connection's query loop measured.
type queryStats struct {
	lat       [numKinds]latencies
	attempted int64
	failed    int64
	recorded  []answer
}

func (s *queryStats) merge(o *queryStats) {
	for k := range s.lat {
		s.lat[k].merge(o.lat[k])
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.recorded = append(s.recorded, o.recorded...)
}

func (s *queryStats) pooled() latencies {
	var all latencies
	for _, l := range s.lat {
		all.merge(l)
	}
	return all
}

// setKinds records the per-kind medians and the pooled p99.
func (s *queryStats) setKinds(res *result) {
	for k, name := range kindNames {
		setMedian(res, name+"_p50_ms", s.lat[k])
	}
	setTail(res, "query_p99_ms", 0.99, s.pooled())
}

// doQuery issues q at query time t, timing from `from` (the send time
// in a closed loop, the intended send time in an open one) and
// crediting the answer to wc.
func (s *queryStats) doQuery(c *conn, q query, t float64, from time.Time, record bool, wc *windowCounter) (done time.Time, ok bool) {
	s.attempted++
	body, err := c.get(q.path(t))
	done = time.Now()
	if err != nil {
		s.failed++
		fmt.Fprintln(os.Stderr, "bench: query:", err)
		return done, false
	}
	s.lat[q.kind].add(done.Sub(from), wc.index(done))
	wc.add(done, 1)
	if record && s.attempted%verifyEvery == 0 {
		s.recorded = append(s.recorded, answer{q, t, append([]byte(nil), body...)})
	}
	return done, true
}

// runQueryStatic is the reads-only closed loop against the preloaded
// store: both connections issue the query mix back to back at the
// stream time the preload ended on.
func runQueryStatic(ctx context.Context, procs *procGroup, cfg config) (*result, error) {
	e, err := setupSockets(ctx, procs, cfg)
	if err != nil {
		return nil, err
	}
	t := e.streamTime()
	before, err := e.probe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	until := start.Add(e.window())
	var (
		wg    sync.WaitGroup
		wcs   [2]*windowCounter
		stats [2]queryStats
	)
	for i := range e.conns {
		wcs[i] = newWindowCounter(start, e.window())
		qs := genQueries(rand.New(rand.NewSource(cfg.seed*2+int64(i))), queryPool, e.stream.ids, e.w.box)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ctx.Err() == nil; n++ {
				now := time.Now()
				if !now.Before(until) {
					return
				}
				stats[i].doQuery(e.conns[i], qs[n%len(qs)], t, now, true, wcs[i])
			}
		}()
	}
	wg.Wait()
	after, err := e.probe()
	if err != nil {
		return nil, err
	}
	stats[0].merge(&stats[1])
	all := stats[0].pooled()
	e.res.count(stats[0].attempted, stats[0].failed)
	rate := medianRate(wcs[:]...)
	e.res.set("ops_per_s", rate, subWindows)
	e.res.set("queries_per_s", rate, subWindows)
	setOpLatency(e.res, all)
	stats[0].setKinds(e.res)
	e.account(before, after, all.len())
	e.res.set("server_cpu_us_per_query", e.res.metrics["server_cpu_us_per_op"].value, all.len())
	return e.finish(ctx, stats[0].recorded)
}

// side is one connection's part of an open-loop step.
type side struct {
	rate      float64 // operations offered per second
	wc        *windowCounter
	lag       latencies // how late each operation was sent
	lastLate  time.Duration
	attempted int64
	ok        int64
}

// step is one fixed-rate stretch of the open-loop workload.
type step struct {
	name          string
	start, end    time.Duration // from the workload's origin
	write, read   side
	acks          latencies
	reads         queryStats
	before, after probe
}

// backlog is how far behind schedule the step's last sends were.
func (s *step) backlog() time.Duration { return max(s.write.lastLate, s.read.lastLate) }

// openLoop sends one connection's share of each step on a seeded
// Poisson schedule: an operation is due at a fixed instant whatever
// happened to the previous one, waits for the connection if that is
// still busy, and is timed by op from the instant it was due.
func openLoop(ctx context.Context, origin time.Time, steps []*step, pick func(*step) *side, rng *rand.Rand, op func(s *step, due time.Time) (done time.Time, ok bool)) {
	for _, s := range steps {
		sd := pick(s)
		for _, off := range poisson(rng, sd.rate, s.end-s.start) {
			if ctx.Err() != nil {
				return
			}
			due := origin.Add(s.start + off)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sd.lastLate = time.Since(due)
			sd.lag.add(sd.lastLate, 0)
			sd.attempted++
			if _, ok := op(s, due); ok {
				sd.ok++
			}
		}
	}
}

// runMixedOpen is the open loop of writes beside reads: connection 0
// sends 8-record frames, connection 1 the query mix, at a lo then a hi
// fixed rate. Queries ask for the stream time of the last acked frame.
func runMixedOpen(ctx context.Context, procs *procGroup, cfg config) (*result, error) {
	e, err := setupSockets(ctx, procs, cfg)
	if err != nil {
		return nil, err
	}
	// One writer from here on: a single cursor over every object,
	// continuing where the preload cursors stopped.
	writer := &cursor{s: e.stream, seq: e.cur[0].seq, mod: 1, pos: e.cur[0].pos, now: e.streamTime()}
	e.cur = []*cursor{writer}
	var streamNow atomic.Uint64 // float64 bits: the last acked frame's stream time
	streamNow.Store(math.Float64bits(writer.now))

	window := e.window()
	loEnd := time.Duration(loShare * float64(window))
	steps := []*step{
		{name: "lo", start: 0, end: loEnd, write: side{rate: loFramesPerS}, read: side{rate: loQueriesPerS}},
		{name: "hi", start: loEnd, end: window, write: side{rate: hiFramesPerS}, read: side{rate: hiQueriesPerS}},
	}
	origin := time.Now().Add(50 * time.Millisecond)
	for _, s := range steps {
		s.write.wc = newWindowCounter(origin.Add(s.start), s.end-s.start)
		s.read.wc = newWindowCounter(origin.Add(s.start), s.end-s.start)
	}
	if steps[0].before, err = e.probe(); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var buf []wire.Record
		openLoop(ctx, origin, steps, func(s *step) *side { return &s.write }, rand.New(rand.NewSource(cfg.seed*4+1)),
			func(s *step, due time.Time) (time.Time, bool) {
				buf = writer.fill(buf[:0], frameSmall, -1)
				err := e.conns[0].send(buf)
				done := time.Now()
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: ingest:", err)
					return done, false
				}
				streamNow.Store(math.Float64bits(writer.now))
				s.acks.add(done.Sub(due), s.write.wc.index(done))
				s.write.wc.add(done, 1)
				return done, true
			})
	}()
	go func() {
		defer wg.Done()
		qs := genQueries(rand.New(rand.NewSource(cfg.seed*4+2)), queryPool, e.stream.ids, e.w.box)
		n := 0
		openLoop(ctx, origin, steps, func(s *step) *side { return &s.read }, rand.New(rand.NewSource(cfg.seed*4+3)),
			func(s *step, due time.Time) (time.Time, bool) {
				n++
				return s.reads.doQuery(e.conns[1], qs[n%len(qs)], math.Float64frombits(streamNow.Load()), due, false, s.read.wc)
			})
	}()
	// Meanwhile the main goroutine probes the servers at each step's end.
	for i, s := range steps {
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(origin.Add(s.end))):
		}
		if i == len(steps)-1 {
			wg.Wait()
		}
		if s.after, err = e.probe(); err != nil {
			return nil, err
		}
		if i+1 < len(steps) {
			steps[i+1].before = s.after
		}
	}

	res := e.res
	for _, s := range steps {
		attempted := s.write.attempted + s.read.attempted
		failed := attempted - s.write.ok - s.read.ok
		// A step still behind schedule at its end is offered more than
		// the system sustains; its operations sent later than the limit
		// count as failed.
		if s.backlog() > maxBacklog {
			var late int64
			for _, l := range append(s.write.lag.ms, s.read.lag.ms...) {
				if l > float64(maxBacklog/time.Millisecond) {
					late++
				}
			}
			failed += late
			res.problem("step %s is unsustainable: %.2f s behind schedule at its end, %d operations sent more than %s late",
				s.name, s.backlog().Seconds(), late, maxBacklog)
		}
		res.count(attempted, failed)
	}
	lo, hi := steps[0], steps[1]
	pooled := hi.reads.pooled()
	pooled.merge(hi.acks)
	res.set("ops_per_s", medianRate(hi.write.wc, hi.read.wc), subWindows)
	res.set("updates_per_s", frameSmall*medianRate(hi.write.wc), subWindows)
	res.set("queries_per_s", medianRate(hi.read.wc), subWindows)
	setOpLatency(res, pooled)
	setMedian(res, "ack_p50_ms", hi.acks)
	setTail(res, "ack_p99_ms", 0.99, hi.acks)
	hi.reads.setKinds(res)
	e.account(hi.before, hi.after, hi.write.ok+hi.read.ok)
	setTail(res, "gen.lo_ack_p99_ms", 0.99, lo.acks)
	setTail(res, "gen.lo_query_p99_ms", 0.99, lo.reads.pooled())
	lag := hi.write.lag
	lag.merge(hi.read.lag)
	res.set("gen.sched_lag_p99_ms", lag.pooled(0.99), lag.len())
	var over int
	for _, l := range pooled.ms {
		if l > 20 {
			over++
		}
	}
	res.set("gen.over_20ms_share", ratio(float64(over), float64(pooled.len())), pooled.len())
	res.note("offered %d frames/s + %d queries/s (lo), %d + %d (hi); hi step %.1f ms behind schedule at its end",
		loFramesPerS, loQueriesPerS, hiFramesPerS, hiQueriesPerS, float64(hi.backlog())/float64(time.Millisecond))
	return e.finish(ctx, nil)
}
