package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/stats"
)

// runChurn measures the query hot path while the write path churns the
// live spatial index at full rate: every object reports once per
// simulated second (random walk plus occasional teleports across the
// whole extent) while concurrent readers issue a mixed 10-NN / range
// load. The run reports query latency percentiles alongside the index
// maintenance counters, then hard-verifies the index: a bounded
// predictor fleet must answer every query through the indexed path
// (zero scan fallbacks), and a post-quiesce sweep must be bit-identical
// to the brute-force scan reference. Sized at 10k and 100k objects at
// scale 1; -scale shrinks both.
func runChurn(cfg fleetConfig, csv bool) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	tb := stats.NewTable("objects", "shards", "workers", "updates", "updates/s",
		"queries", "q p50 [us]", "p95 [us]", "p99 [us]",
		"cell moves", "bound recomps", "cells/query", "k-NN frontier cells", "fallbacks")
	for _, base := range []int{10_000, 100_000} {
		n := int(float64(base) * cfg.scale)
		if n < 64 {
			n = 64
		}
		if err := churnRun(cfg, n, tb); err != nil {
			return fmt.Errorf("churn at %d objects: %w", n, err)
		}
	}
	return emit(tb, csv)
}

// churnRun drives one churn load at a fixed population and appends its
// row to tb. It returns an error when the index verification fails —
// a scan fallback on a bounded fleet or any divergence from the scan
// reference.
func churnRun(cfg fleetConfig, n int, tb *stats.Table) error {
	const (
		extent = 20_000.0 // metro-scale square, metres
		rounds = 20       // full-rate 1 Hz reports per object
	)
	s := locserv.NewSharded(cfg.shards)
	type state struct {
		id  locserv.ObjectID
		seq uint32
		pos geo.Point
	}
	objs := make([]state, n)
	rng := rand.New(rand.NewSource(cfg.seed))
	var init []locserv.Update
	for i := range objs {
		id := locserv.ObjectID(fmt.Sprintf("churn-%06d", i))
		var pred core.Predictor
		switch i % 3 {
		case 0:
			pred = core.LinearPredictor{}
		case 1:
			pred = core.CTRVPredictor{}
		default:
			pred = core.StaticPredictor{}
		}
		if err := s.Register(id, pred); err != nil {
			return err
		}
		objs[i] = state{id: id, seq: 1, pos: geo.Pt(rng.Float64()*extent, rng.Float64()*extent)}
		init = append(init, locserv.Update{ID: id, Update: core.Update{Report: core.Report{
			Seq: 1, T: 0, Pos: objs[i].pos, V: rng.Float64() * 30,
			Heading: rng.Float64() * 6.28, Omega: rng.Float64()*0.2 - 0.1,
		}}})
	}
	if err := s.ApplyBatch(init); err != nil {
		return err
	}

	// Writers: each owns a stripe of the fleet and pushes one batch per
	// simulated second — the full report rate, no pacing. Readers run a
	// mixed query load until the writers finish.
	var (
		round    atomic.Int64 // latest simulated second any writer applied
		done     atomic.Bool
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
		writeErr atomic.Value
	)
	writers := cfg.workers
	if writers > n/64+1 {
		writers = n/64 + 1 // keep batches non-trivial at small -scale
	}
	stripe := (n + writers - 1) / writers
	startT := time.Now()
	for w := 0; w < writers; w++ {
		lo, hi := w*stripe, (w+1)*stripe
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		writerWG.Add(1)
		go func(w, lo, hi int) {
			defer writerWG.Done()
			wr := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			batch := make([]locserv.Update, 0, hi-lo)
			for r := 1; r <= rounds; r++ {
				now := float64(r)
				batch = batch[:0]
				for i := lo; i < hi; i++ {
					o := &objs[i]
					o.seq++
					if wr.Intn(100) == 0 { // teleport: forced cell move
						o.pos = geo.Pt(wr.Float64()*extent, wr.Float64()*extent)
					} else { // random walk at street speed
						o.pos.X += wr.Float64()*30 - 15
						o.pos.Y += wr.Float64()*30 - 15
					}
					batch = append(batch, locserv.Update{ID: o.id, Update: core.Update{Report: core.Report{
						Seq: o.seq, T: now, Pos: o.pos, V: wr.Float64() * 30,
						Heading: wr.Float64() * 6.28, Omega: wr.Float64()*0.2 - 0.1,
					}}})
				}
				if err := s.ApplyBatch(batch); err != nil {
					writeErr.Store(err)
					return
				}
				round.Store(int64(r))
			}
		}(w, lo, hi)
	}
	// Readers record straight into a shared lock-free histogram — the
	// same log-bucketed implementation the servers expose on /metrics —
	// so no per-reader latency slices accumulate or need folding.
	const readers = 2
	qLat := obs.NewHistogram("drsim_churn_query_seconds", "", obs.TicksSeconds)
	for q := 0; q < readers; q++ {
		readerWG.Add(1)
		go func(q int) {
			defer readerWG.Done()
			qr := rand.New(rand.NewSource(cfg.seed + 1000 + int64(q)))
			for !done.Load() {
				qt := float64(round.Load()) + qr.Float64()*2 - 1
				p := geo.Pt(qr.Float64()*extent, qr.Float64()*extent)
				t0 := time.Now()
				if qr.Intn(2) == 0 {
					s.Nearest(p, 10, qt)
				} else {
					s.Within(geo.Rect{Min: p, Max: geo.Pt(p.X+1000, p.Y+1000)}, qt)
				}
				qLat.RecordDur(time.Since(t0))
			}
		}(q)
	}
	writerWG.Wait()
	ingestWall := time.Since(startT)
	done.Store(true)
	readerWG.Wait()
	if err, _ := writeErr.Load().(error); err != nil {
		return err
	}

	qs := qLat.Snapshot()
	queries := int64(qs.Count)
	st := s.IndexStats() // before the verification sweep skews counters
	updates := int64(n) * (rounds + 1)

	// Verification: the bounded fleet must never have scanned, and the
	// quiesced index must agree with brute force bit for bit.
	if st.ScanFallbacks != 0 {
		return fmt.Errorf("bounded-predictor fleet hit the scan path %d times", st.ScanFallbacks)
	}
	vr := rand.New(rand.NewSource(cfg.seed + 5000))
	for i := 0; i < 40; i++ {
		qt := []float64{float64(rounds), float64(rounds) + 300, 0, -10}[i%4]
		p := geo.Pt(vr.Float64()*extent, vr.Float64()*extent)
		r := geo.Rect{Min: p, Max: geo.Pt(p.X+2000, p.Y+2000)}
		if got, want := s.Within(r, qt), s.ReferenceWithin(r, qt); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Within(%v, t=%v): index %d hits, scan %d", r, qt, len(got), len(want))
		}
		k := []int{1, 10, n + 5}[i%3]
		if got, want := s.Nearest(p, k, qt), s.ReferenceNearest(p, k, qt); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Nearest(%v, k=%d, t=%v): index diverges from scan", p, k, qt)
		}
	}

	tb.AddRow(n, s.Shards(), writers, updates, float64(updates)/ingestWall.Seconds(),
		queries, qs.Quantile(0.50)*1e6, qs.Quantile(0.95)*1e6, qs.Quantile(0.99)*1e6,
		st.CellMoves, st.BoundRecomputes, float64(st.CellsVisited)/float64(max64(queries, 1)),
		st.RingExpansions, st.ScanFallbacks)
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
