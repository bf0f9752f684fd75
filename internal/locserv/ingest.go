package locserv

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/wire"
)

// AutoRegister decides the prediction function for an object that shows
// up on the ingest path before being registered. Returning nil rejects
// the object. It runs under a shard's write lock, so it must not call
// back into the store. id may share its bytes with the rest of a
// decoded frame's ids; an AutoRegister that keeps it clones it.
type AutoRegister func(id ObjectID) core.Predictor

// DeliverRecords is the store's batched write. It applies recs in
// place, grouped by shard so that each shard's write lock is held once
// per call. A record without an id or whose report is not Finite is
// refused with its own error. An unknown id is registered in that same
// hold with the predictor auto returns, so auto runs once per admitted
// id; when auto is nil or returns nil, the id's records are skipped and
// reported in the error. applied is the number of records belonging to
// a registered object — whether each advanced the replica or was a
// stale duplicate is the replica's (seq-gated) decision, visible in
// UpdatesApplied. DeliverRecords keeps no record and no part of recs
// past the call, and in the steady state allocates nothing: its sort
// scratch is pooled.
func (s *Service) DeliverRecords(recs []wire.Record, auto AutoRegister) (applied int, err error) {
	if len(recs) == 0 {
		return 0, nil
	}
	start := time.Now()
	defer func() { s.ingestBatch.RecordDur(time.Since(start)) }()
	var errs []error
	// Counting sort of record indices by shard: one hash pass, no copies
	// of the records. A record without an id or with a non-finite report
	// takes no slot.
	n := len(s.shards)
	scr := sortScratches.Get().(*sortScratch)
	defer sortScratches.Put(scr)
	starts := resize(&scr.starts, n+1)
	shardOf := resize(&scr.shardOf, len(recs))
	for i := range recs {
		if recs[i].ID == "" {
			errs = append(errs, fmt.Errorf("locserv: record %d has no object id", i))
			shardOf[i] = -1
			continue
		}
		if !recs[i].Update.Report.Finite() {
			errs = append(errs, fmt.Errorf("locserv: record %d for %q has a non-finite report", i, recs[i].ID))
			shardOf[i] = -1
			continue
		}
		sh := int32(shardIndex(ObjectID(recs[i].ID), n))
		shardOf[i] = sh
		starts[sh+1]++
	}
	for i := 0; i < n; i++ {
		starts[i+1] += starts[i]
	}
	order := resize(&scr.order, int(starts[n]))
	fill := resize(&scr.fill, n)
	copy(fill, starts[:n])
	for i, sh := range shardOf {
		if sh >= 0 {
			order[fill[sh]] = int32(i)
			fill[sh]++
		}
	}
	for i, sh := range s.shards {
		if part := order[starts[i]:starts[i+1]]; len(part) > 0 {
			var a int
			errs, a = s.deliverShard(sh, recs, part, auto, errs)
			applied += a
		}
	}
	return applied, errors.Join(errs...)
}

// sortScratch is DeliverRecords' counting-sort state, pooled so that a
// steady stream of batches reuses it.
type sortScratch struct {
	starts, shardOf, order, fill []int32
}

var sortScratches = sync.Pool{New: func() any { return new(sortScratch) }}

// resize sets *buf to n zeroed entries, growing its backing array only
// when too short, and returns it.
func resize(buf *[]int32, n int) []int32 {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

// deliverShard applies recs[order[...]], all hashed to sh, under one
// hold of sh's write lock, appending an error per rejected record.
// applied counts the records of registered objects.
func (s *Service) deliverShard(sh *shard, recs []wire.Record, order []int32, auto AutoRegister, errs []error) (_ []error, applied int) {
	var accepted, bytes int64
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range order {
		r := &recs[i]
		id := ObjectID(r.ID)
		e, ok := sh.objs[id]
		if !ok {
			if auto == nil {
				errs = append(errs, fmt.Errorf("locserv: unknown object %q", id))
				continue
			}
			pred := auto(id)
			if pred == nil {
				errs = append(errs, fmt.Errorf("locserv: object %q rejected by auto-register", id))
				continue
			}
			e = s.registerLocked(sh, id, pred)
		}
		applied++
		if e.srv.Apply(r.Update) {
			accepted++
			bytes += int64(r.Update.Report.EncodedSize())
			sh.noteAppliedLocked(e)
		}
	}
	sh.mutatedLocked()
	s.applied.Add(accepted)
	s.appliedBytes.Add(bytes)
	return errs, applied
}

// Sink adapts the service to wire.Sink so transports (the simulation
// loopback, the netsim link, HTTP ingest) can deliver straight into the
// sharded store.
func (s *Service) Sink(auto AutoRegister) wire.Sink {
	return wire.SinkFunc(func(batch []wire.Record) error {
		_, err := s.DeliverRecords(batch, auto)
		return err
	})
}
