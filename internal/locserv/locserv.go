// Package locserv implements the location service the update protocols
// feed ([5],[7] in the paper): an in-memory store of per-object protocol
// replicas that answers position, k-nearest and range queries by
// evaluating each object's shared prediction function — so query answers
// carry the same accuracy guarantee u_s as the protocol itself.
//
// The store is sharded: objects are distributed over N independent
// shards by an FNV-1a hash of their id, each shard guarded by its own
// read-write lock. Updates can be ingested one at a time (Apply) or in
// batches (DeliverRecords) that hold each shard lock only once; range and
// k-nearest queries fan out across the shards in parallel and merge
// their partial answers. Each shard additionally keeps a live spatial
// index of the last reports (a spatial.LiveGrid maintained in place by
// the write path: an accepted report moves its object between cells only
// when it crosses a cell boundary) whose cells carry the displacement
// fold of their residents and the residents' report summaries inline, so
// a query bounds each cell and then each resident by how far it can have
// drifted since its report before it evaluates a prediction — a range
// query by window, a k-nearest query in ascending order of lower bound
// until the bound passes the k-th best. A fan-out worker carries one
// result heap (one output slice) through the shards it takes, so every
// shard prunes against the node-wide k-th distance so far. Answers are
// bit-identical to a full scan by construction. Objects whose predictor
// admits no displacement bound route the whole shard to the scan path
// instead (see live_index.go).
//
// The service is a real ingest server, not only a query store: updates
// arrive through the internal/wire transport layer — in-process, over a
// simulated lossy link, or as binary frames POSTed to the /updates HTTP
// endpoint (NodeService.Handler) — and land in DeliverRecords either way.
//
// Per-object prediction is incremental: each core.Server replica caches
// a prediction cursor over its last report (invalidated automatically by
// Apply/DeliverRecords, shared safely across concurrent query fan-outs), so
// a stream of Nearest/Within/Position calls at advancing times costs
// O(time delta) per object instead of a road-graph re-walk from each
// object's report — the dominant cost for map-predicted fleets in the
// protocol's long quiet periods.
package locserv

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/obs"
	"mapdr/internal/spatial"
)

// ObjectID identifies a tracked mobile object.
type ObjectID string

// ObjectPos is a query result: an object and its predicted position.
type ObjectPos struct {
	ID  ObjectID
	Pos geo.Point
	// Dist is the distance to the query point for nearest queries.
	Dist float64
	// Seq is the answering replica's protocol sequence number for the
	// object (0 before its first report). A replicated cluster merges
	// per-node answers on it: the highest Seq is the freshest copy.
	Seq uint32
}

// DefaultShards is the shard count used by New. It trades lock
// contention against per-query fan-out overhead and suits stores from a
// few hundred to a few million objects.
const DefaultShards = 16

// parallelQueryMin is the store size above which fan-out queries spawn
// worker goroutines; below it the per-shard work is too small to pay for
// the scheduling.
const parallelQueryMin = 1024

// minShardsPerWorker caps the fan-out width: a worker's first shard is
// searched with no k-th bound yet, so the bound it carries only pays off
// over the shards that follow.
const minShardsPerWorker = 4

// Service is a thread-safe, sharded location service.
type Service struct {
	shards []*shard
	// count tracks the total object count so queries can decide whether
	// parallel fan-out is worthwhile without locking every shard.
	count atomic.Int64
	// reg is the service's metrics registry: every counter below lives
	// on it, and GET /metrics, GET /stats (NodeStatsOf) and the
	// OpMetrics wire blob all read its snapshot.
	reg *obs.Registry
	// applied counts updates that advanced an object replica and
	// appliedBytes their total encoded wire size, for /stats and
	// capacity monitoring.
	applied      *obs.Counter
	appliedBytes *obs.Counter
	// health aggregates spatial-index behaviour across the shards, for
	// /stats and capacity monitoring.
	health IndexHealth
	// Latency histograms for the three query families and batched
	// ingest. Nearest/Within/DeliverRecords record every call (one Record is
	// two atomic adds, trivial next to a fan-out); Position is the
	// nanosecond-scale hot path, so it samples 1 in stalenessSample
	// calls — the common case pays a single atomic add.
	qPosition   *obs.Histogram
	qNearest    *obs.Histogram
	qWithin     *obs.Histogram
	ingestBatch *obs.Histogram
	// Paper-native staleness gauges: the age of the report behind an
	// answer and the effective uncertainty u_s = drift bound × age at
	// answer time. Sampled on the same 1-in-stalenessSample cadence:
	// Position records its own answer, Nearest/Within walk up to
	// stalenessMaxHits hits.
	ansAge        *obs.Histogram
	ansUS         *obs.Histogram
	stalenessTick atomic.Int64
	// ring retains traced queries served by this node for GET /trace.
	ring *obs.TraceRing
}

// IndexHealth counts the live spatial index's behaviour across all
// shards. CellMoves tracks how often ingest actually crossed a cell
// boundary (the only write-path index cost beyond a fold);
// BoundRecomputes how often a cell fold was re-derived exactly;
// CellsVisited, RingExpansions and CandidatesEvaluated the read-side
// pruning effort — evaluated candidates per returned hit is what the
// per-object prefilter buys. A nonzero ScanFallbacks share means
// unbounded-predictor objects are routing queries to the O(n) scan path.
// The counters are obs-registry counters, so they surface on
// GET /metrics without a second accounting path.
type IndexHealth struct {
	// CellMoves counts accepted reports that moved an object between
	// grid cells.
	CellMoves *obs.Counter
	// BoundRecomputes counts exact per-cell fold re-derivations
	// (evictions and fold-budget refreshes).
	BoundRecomputes *obs.Counter
	// CellsVisited counts cells whose residents were tested by indexed
	// queries (after per-cell bound pruning).
	CellsVisited *obs.Counter
	// RingExpansions counts cells k-nearest queries took off the
	// bound-ordered frontier. (The name is the wire's: it dates from when
	// the search marched rings of cells.)
	RingExpansions *obs.Counter
	// CandidatesEvaluated counts residents indexed queries evaluated by
	// Position(t), after the per-object prefilter.
	CandidatesEvaluated *obs.Counter
	// IndexedQueries counts queries answered through the live index.
	IndexedQueries *obs.Counter
	// ScanFallbacks counts queries answered by a linear scan because the
	// shard holds objects whose predictor admits no displacement bound.
	ScanFallbacks *obs.Counter
}

// Instrumentation sampling: every stalenessSample-th Position call
// records its latency and its answer's report age / effective u_s;
// every stalenessSample-th Nearest/Within answer walks up to
// stalenessMaxHits of its hits for the same staleness gauges. At 1 in 4
// the cost is not in the noise: in a CPU profile of the benchmark's
// protocol_city workload, Position's sampled branch (the tick, two clock
// reads, three histogram records) took 7.3 % of the process, and 11.7 %
// once the prediction beneath it got cheaper (one profile each). A lower
// rate would also thin the staleness gauges, so the rate stays until a
// measurement settles the trade.
const (
	stalenessSample  = 4 // must be a power of two
	stalenessMaxHits = 32
)

// queryTally is the index work one fan-out worker did for one query,
// kept in the worker's own state and published once per query rather
// than per shard.
type queryTally struct {
	indexed, fallbacks int64 // shards answered through the index / by scan
	cells              int64 // cells whose residents were tested
	evaluated          int64 // residents that reached Position(t)
}

func (t *queryTally) add(o queryTally) {
	t.indexed += o.indexed
	t.fallbacks += o.fallbacks
	t.cells += o.cells
	t.evaluated += o.evaluated
}

func (h *IndexHealth) publish(t queryTally) {
	h.IndexedQueries.Add(t.indexed)
	h.ScanFallbacks.Add(t.fallbacks)
	h.CellsVisited.Add(t.cells)
	h.CandidatesEvaluated.Add(t.evaluated)
}

// IndexStats is the index-health part of NodeStats
// (CandidatesEvaluated is on /metrics only). index_ring_expansions
// counts the cells k-NN queries took off their bound-ordered frontiers;
// the key is kept for its readers.
type IndexStats struct {
	CellMoves       int64 `json:"index_cell_moves"`
	BoundRecomputes int64 `json:"index_bound_recomputes"`
	CellsVisited    int64 `json:"index_cells_visited"`
	RingExpansions  int64 `json:"index_ring_expansions"`
	IndexedQueries  int64 `json:"index_queries"`
	ScanFallbacks   int64 `json:"index_scan_fallbacks"`
}

// objEntry is a shard's record for one object: the protocol replica
// plus the live-index bookkeeping embedded intrusively — the grid slot
// and whether the predictor bounds its drift — so the ingest and query
// hot paths never hash an ObjectID beyond the one replica lookup they
// always needed.
type objEntry struct {
	id  ObjectID
	srv *core.Server
	// bounded caches core.BoundsDisplacement of the replica's predictor:
	// static per predictor instance, resolved once at Register.
	bounded bool
	slot    spatial.Slot
}

// GridSlot implements spatial.Member.
func (e *objEntry) GridSlot() *spatial.Slot { return &e.slot }

// shard is one lock domain of the service: a partition of the object
// replicas plus a live spatial index of their last reported positions
// (see live_index.go for the maintenance and query algorithms).
type shard struct {
	mu   sync.RWMutex
	objs map[ObjectID]*objEntry

	// health points at the service-wide index health counters.
	health *IndexHealth

	// grid holds the last report of every bounded-predictor object that
	// has one.
	grid *spatial.LiveGrid[*objEntry]
	// unbounded counts residents whose predictor admits no displacement
	// bound; while nonzero, queries take the scan path.
	unbounded int
	// sizedAt is the grid population when the cell size was last chosen.
	sizedAt int
	// epoch increments under the write lock on every mutation so readers
	// can assert index stability.
	epoch uint64
}

// New returns an empty service with DefaultShards shards.
func New() *Service { return NewSharded(DefaultShards) }

// traceRingCap bounds the node-side retained trace history.
const traceRingCap = 256

// NewSharded returns an empty service with n shards. n < 1 is treated as
// 1, which degenerates to a single-lock store (the benchmark baseline).
func NewSharded(n int) *Service {
	if n < 1 {
		n = 1
	}
	reg := obs.NewRegistry()
	s := &Service{
		shards: make([]*shard, n),
		reg:    reg,
		applied: reg.Counter("mapdr_node_updates_applied_total",
			"Updates that advanced an object replica (stale and duplicate deliveries excluded)."),
		appliedBytes: reg.Counter("mapdr_node_wire_bytes_total",
			"Encoded size of applied update reports in bytes (the paper's message-cost metric)."),
		health: IndexHealth{
			CellMoves: reg.Counter("mapdr_node_index_cell_moves_total",
				"Accepted reports that moved an object between live-grid cells."),
			BoundRecomputes: reg.Counter("mapdr_node_index_bound_recomputes_total",
				"Exact per-cell displacement-fold re-derivations."),
			CellsVisited: reg.Counter("mapdr_node_index_cells_visited_total",
				"Cells whose residents were tested by indexed queries."),
			RingExpansions: reg.Counter("mapdr_node_index_ring_expansions_total",
				"Cells k-nearest queries took off the bound-ordered frontier."),
			CandidatesEvaluated: reg.Counter("mapdr_node_index_candidates_evaluated_total",
				"Residents indexed queries evaluated by prediction, after the per-object prefilter."),
			IndexedQueries: reg.Counter("mapdr_node_index_indexed_queries_total",
				"Shard queries answered through the live spatial index."),
			ScanFallbacks: reg.Counter("mapdr_node_index_scan_fallbacks_total",
				"Shard queries answered by a linear scan because unbounded predictors are present."),
		},
		qPosition: reg.Histogram("mapdr_node_query_position_seconds",
			"Wall-clock latency of position queries (1-in-4 sampled).", obs.TicksSeconds),
		qNearest: reg.Histogram("mapdr_node_query_nearest_seconds",
			"Wall-clock latency of k-nearest queries.", obs.TicksSeconds),
		qWithin: reg.Histogram("mapdr_node_query_within_seconds",
			"Wall-clock latency of range queries.", obs.TicksSeconds),
		ingestBatch: reg.Histogram("mapdr_node_ingest_batch_seconds",
			"Wall-clock latency of batched update ingestion (DeliverRecords).", obs.TicksSeconds),
		ansAge: reg.Histogram("mapdr_node_answer_age_seconds",
			"Prediction age behind query answers: query time minus report time, simulation seconds.", obs.TicksSeconds),
		ansUS: reg.Histogram("mapdr_node_answer_us_meters",
			"Effective uncertainty u_s at answer time: displacement bound times prediction age, meters.", obs.TicksMeters),
		ring: obs.NewTraceRing(traceRingCap),
	}
	reg.GaugeFunc("mapdr_node_objects", "Registered objects.",
		func() float64 { return float64(s.count.Load()) })
	reg.Gauge("mapdr_node_shards", "Store shards.").Set(float64(n))
	for i := range s.shards {
		s.shards[i] = &shard{
			objs:    make(map[ObjectID]*objEntry),
			health:  &s.health,
			grid:    spatial.NewLiveGrid[*objEntry](liveCellInit),
			sizedAt: liveResizeMin / 2,
		}
	}
	return s
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// shardIndex hashes id with FNV-1a and reduces it to a shard slot.
func shardIndex(id ObjectID, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

func (s *Service) shardFor(id ObjectID) *shard {
	return s.shards[shardIndex(id, len(s.shards))]
}

// Register adds an object with its prediction function. The predictor
// must match the object's source configuration.
func (s *Service) Register(id ObjectID, pred core.Predictor) error {
	if id == "" {
		return fmt.Errorf("locserv: empty object id")
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.objs[id]; dup {
		return fmt.Errorf("locserv: object %q already registered", id)
	}
	s.registerLocked(sh, id, pred)
	sh.mutatedLocked()
	return nil
}

// registerLocked adds id, not yet present, to sh under the write lock
// the caller holds and returns its entry. The caller closes the hold
// with mutatedLocked. The stored key is a clone of id: a decoded
// record's id shares one string with its whole frame, which the map
// key would otherwise pin for the object's lifetime.
func (s *Service) registerLocked(sh *shard, id ObjectID, pred core.Predictor) *objEntry {
	id = ObjectID(strings.Clone(string(id)))
	e := &objEntry{id: id, srv: core.NewServer(pred), bounded: core.BoundsDisplacement(pred)}
	if !e.bounded {
		sh.unbounded++
	}
	sh.objs[id] = e
	s.count.Add(1)
	return e
}

// Deregister removes an object.
func (s *Service) Deregister(id ObjectID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.objs[id]; ok {
		if !e.bounded {
			sh.unbounded--
		}
		sh.grid.Remove(e)
		delete(sh.objs, id)
		sh.mutatedLocked()
		s.count.Add(-1)
	}
}

// Apply ingests a single update for an object. A report that is not
// Finite is refused.
func (s *Service) Apply(id ObjectID, u core.Update) error {
	if !u.Report.Finite() {
		return fmt.Errorf("locserv: object %q: non-finite report", id)
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.objs[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("locserv: unknown object %q", id)
	}
	accepted := e.srv.Apply(u)
	if accepted {
		sh.noteAppliedLocked(e)
	}
	sh.mutatedLocked()
	sh.mu.Unlock()
	if accepted {
		s.applied.Add(1)
		s.appliedBytes.Add(int64(u.Report.EncodedSize()))
	}
	return nil
}

// Position answers a position query for one object at time t.
func (s *Service) Position(id ObjectID, t float64) (geo.Point, bool) {
	p, _, ok := s.PositionSeq(id, t)
	return p, ok
}

// PositionSeq is Position plus the replica's protocol sequence number —
// what a replicated coordinator needs to pick the freshest of R
// answers. seq is 0 for unknown or not-yet-reported objects.
func (s *Service) PositionSeq(id ObjectID, t float64) (pos geo.Point, seq uint32, ok bool) {
	// Position is the nanosecond-scale hot path (fleet sources call it
	// per sample), so the instrumentation itself is sampled: 1 in
	// stalenessSample calls pays the clock reads and histogram records,
	// the rest pay one atomic add.
	sampled := s.stalenessTick.Add(1)&(stalenessSample-1) == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, found := sh.objs[id]
	if !found {
		sh.mu.RUnlock()
		if sampled {
			s.qPosition.RecordDur(time.Since(start))
		}
		return geo.Point{}, 0, false
	}
	pos, ok = e.srv.Position(t)
	seq = e.srv.Seq()
	// The entry is already at hand, so a sampled position answer records
	// staleness inline: report age, and u_s when the predictor admits a
	// finite bound.
	if sampled && ok {
		if rep, has := e.srv.LastReport(); has {
			s.ansAge.Record(t - rep.T)
			if e.bounded {
				if us := core.EffectiveUncertainty(e.srv.Predictor(), rep, t); !math.IsInf(us, 1) {
					s.ansUS.Record(us)
				}
			}
		}
	}
	sh.mu.RUnlock()
	if sampled {
		s.qPosition.RecordDur(time.Since(start))
	}
	return pos, seq, ok
}

// Len returns the number of registered objects.
func (s *Service) Len() int { return int(s.count.Load()) }

// Contains reports whether id is registered.
func (s *Service) Contains(id ObjectID) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.objs[id]
	sh.mu.RUnlock()
	return ok
}

// UpdatesApplied returns the number of updates that advanced an object
// replica (stale and duplicate deliveries excluded).
func (s *Service) UpdatesApplied() int64 { return s.applied.Load() }

// WireBytes returns the total variable-length encoded size of the
// applied update *reports* — the paper's message-cost metric. It
// deliberately excludes per-record (id, reason) and per-frame framing
// overhead; transports report those in their wire.Stats.
func (s *Service) WireBytes() int64 { return s.appliedBytes.Load() }

// Objects returns the registered ids in sorted order.
func (s *Service) Objects() []ObjectID {
	ids := make([]ObjectID, 0, s.count.Load())
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.objs {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(ids)
	return ids
}

// fanWidth returns how many workers a fan-out query runs: one per core
// up to a quarter of the shards (see minShardsPerWorker), and a single
// inline pass when the store is too small for goroutines to pay off.
func (s *Service) fanWidth() int {
	width := min(runtime.GOMAXPROCS(0), len(s.shards)/minShardsPerWorker)
	if width < 2 || s.count.Load() < parallelQueryMin {
		return 1
	}
	return width
}

// forEachShard runs fn once per shard on width workers (see fanWidth),
// passing each call its worker's index so a worker can carry state from
// one shard to the next.
func (s *Service) forEachShard(width int, fn func(worker int, sh *shard)) {
	if width == 1 {
		for _, sh := range s.shards {
			fn(0, sh)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(s.shards) {
				return
			}
			fn(w, s.shards[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0) // the caller is a worker too: one goroutine and one wake-up fewer
	wg.Wait()
}

// PosLess orders query results by ascending distance, breaking ties by
// id so answers are deterministic.
func PosLess(a, b ObjectPos) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// sortNearest orders hits by PosLess and truncates them to k; an empty
// answer is nil, whichever path produced it.
func sortNearest(hits []ObjectPos, k int) []ObjectPos {
	if len(hits) == 0 {
		return nil
	}
	slices.SortFunc(hits, func(a, b ObjectPos) int {
		switch {
		case PosLess(a, b):
			return -1
		case PosLess(b, a):
			return 1
		}
		return 0
	})
	return hits[:min(k, len(hits))]
}

// sortWithin orders hits by id; an empty answer is nil.
func sortWithin(hits []ObjectPos) []ObjectPos {
	if len(hits) == 0 {
		return nil
	}
	slices.SortFunc(hits, func(a, b ObjectPos) int { return cmp.Compare(a.ID, b.ID) })
	return hits
}

// Nearest returns up to k objects nearest to p at time t ("find the
// nearest taxi cab", paper §1). Objects without a report yet are
// skipped. Each fan-out worker reduces the shards it takes to one top-k
// heap; the workers' heaps are merged and truncated.
func (s *Service) Nearest(p geo.Point, k int, t float64) []ObjectPos {
	if k <= 0 {
		return nil
	}
	start := time.Now()
	qs := make([]nearestQuery, s.fanWidth())
	for w := range qs {
		qs[w] = nearestQuery{p: p, k: k, t: t, heap: make([]ObjectPos, 0, min(k, s.Len()))}
	}
	s.forEachShard(len(qs), func(w int, sh *shard) { sh.nearest(&qs[w]) })
	all, tally := qs[0].heap, qs[0].queryTally
	for _, q := range qs[1:] {
		all = append(all, q.heap...)
		tally.add(q.queryTally)
	}
	all = sortNearest(all, k)
	s.health.publish(tally)
	s.health.RingExpansions.Add(tally.cells)
	s.qNearest.RecordDur(time.Since(start))
	s.recordStaleness(all, t)
	return all
}

// nearest feeds q from the shard — by bound-ordered search over the live
// index when every resident's predictor is displacement-bounded, by scan
// otherwise.
func (sh *shard) nearest(q *nearestQuery) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.unbounded > 0 {
		q.fallbacks++
		sh.nearestScanLocked(q)
		return
	}
	q.indexed++
	sh.nearestIndexedLocked(q)
}

// nearestScanLocked is the O(shard population) reference: every object
// offered to the heap. It is the correctness oracle for the indexed path
// in tests and the fallback for unbounded predictors.
func (sh *shard) nearestScanLocked(q *nearestQuery) {
	for _, e := range sh.objs {
		q.offer(e)
	}
}

// Within returns all objects predicted inside r at time t ("all users
// currently inside a department of a store", paper §1), sorted by id.
func (s *Service) Within(r geo.Rect, t float64) []ObjectPos {
	start := time.Now()
	qs := make([]withinQuery, s.fanWidth())
	for w := range qs {
		qs[w] = withinQuery{r: r, t: t}
	}
	s.forEachShard(len(qs), func(w int, sh *shard) { sh.within(&qs[w]) })
	out, tally := qs[0].out, qs[0].queryTally
	for _, q := range qs[1:] {
		out = append(out, q.out...)
		tally.add(q.queryTally)
	}
	out = sortWithin(out)
	s.health.publish(tally)
	s.qWithin.RecordDur(time.Since(start))
	s.recordStaleness(out, t)
	return out
}

// within feeds q from the shard — through the live index when every
// resident's predictor is displacement-bounded, by full scan otherwise.
func (sh *shard) within(q *withinQuery) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.unbounded > 0 {
		q.fallbacks++
		sh.withinScanLocked(q)
		return
	}
	q.indexed++
	sh.withinIndexedLocked(q)
}

// withinScanLocked is the O(shard population) reference: evaluate every
// object. It is the correctness oracle for the indexed path in tests
// and the fallback for unbounded predictors.
func (sh *shard) withinScanLocked(q *withinQuery) {
	for _, e := range sh.objs {
		q.offer(e)
	}
}

// recordStaleness histograms report age and effective u_s for a sampled
// subset of fan-out query answers: every stalenessSample-th answered
// query walks up to stalenessMaxHits hits, re-resolving each through its
// shard (one RLock + map lookup per hit), and records the worst age and
// worst finite u_s it saw — the answer-level guarantee a client should
// plan for. Hits deregistered since the query simply drop out.
func (s *Service) recordStaleness(hits []ObjectPos, t float64) {
	if len(hits) == 0 {
		return
	}
	if s.stalenessTick.Add(1)&(stalenessSample-1) != 0 {
		return
	}
	n := len(hits)
	if n > stalenessMaxHits {
		n = stalenessMaxHits
	}
	var (
		maxAge, maxUS   float64
		haveAge, haveUS bool
	)
	for i := 0; i < n; i++ {
		sh := s.shardFor(hits[i].ID)
		sh.mu.RLock()
		e, ok := sh.objs[hits[i].ID]
		if !ok {
			sh.mu.RUnlock()
			continue
		}
		rep, has := e.srv.LastReport()
		bounded, pred := e.bounded, e.srv.Predictor()
		sh.mu.RUnlock()
		if !has {
			continue
		}
		if age := t - rep.T; !haveAge || age > maxAge {
			maxAge, haveAge = age, true
		}
		if bounded {
			if us := core.EffectiveUncertainty(pred, rep, t); !math.IsInf(us, 1) && (!haveUS || us > maxUS) {
				maxUS, haveUS = us, true
			}
		}
	}
	if haveAge {
		s.ansAge.Record(maxAge)
	}
	if haveUS {
		s.ansUS.Record(maxUS)
	}
}
