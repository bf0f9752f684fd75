// Coordinator observability: the registry bridging the coordinator's
// routing counters onto /metrics, the span bookkeeping that decomposes
// a sampled query into per-member fan-out hops, and the cluster-wide
// snapshot a scrape assembles — the coordinator's own metrics plus
// every live member's OpMetrics snapshot merged in (counters sum,
// histograms add bucket-wise), plus per-member routing/health gauges
// the coordinator alone can know.

package cluster

import (
	"time"

	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// coordTraceRingCap bounds the coordinator-side retained trace history.
const coordTraceRingCap = 256

// initObs builds the coordinator's metrics registry. Called once from
// NewReplicated, before the coordinator is shared.
func (c *Coordinator) initObs() {
	reg := obs.NewRegistry()
	c.obsReg = reg
	c.traceRing = obs.NewTraceRing(coordTraceRingCap)
	reg.CounterFunc("mapdr_coord_queries_total",
		"Queries served by this coordinator.", c.queries.Load)
	reg.CounterFunc("mapdr_coord_query_errors_total",
		"Scatter/route queries that failed.", c.queryErrors.Load)
	reg.CounterFunc("mapdr_coord_degraded_queries_total",
		"Queries answered with at least one down member skipped.", c.degraded.Load)
	reg.CounterFunc("mapdr_coord_read_repairs_total",
		"Read-repair deliveries that landed on stale replicas.", c.repairs.Load)
	reg.CounterFunc("mapdr_coord_ingest_flushes_total",
		"Ingest operations (Send, DeliverRecords or Flush).", c.flushes.Load)
	reg.CounterFunc("mapdr_coord_migrations_committed_total",
		"Live migrations committed.", c.migCommitted.Load)
	reg.CounterFunc("mapdr_coord_migrations_aborted_total",
		"Live migrations aborted.", c.migAborted.Load)
	reg.CounterFunc("mapdr_coord_migrations_resumed_total",
		"Halted migrations resumed.", c.migResumed.Load)
	reg.CounterFunc("mapdr_coord_migration_records_total",
		"Records moved by live migrations.", c.migRecords.Load)
	reg.GaugeFunc("mapdr_coord_members", "Cluster members this coordinator routes to.",
		func() float64 { return float64(len(c.Nodes())) })
	c.qPositionH = reg.Histogram("mapdr_coord_query_position_seconds",
		"Wall-clock latency of coordinator position queries (owner fan-out and freshest-Seq pick).", obs.TicksSeconds)
	c.qNearestH = reg.Histogram("mapdr_coord_query_nearest_seconds",
		"Wall-clock latency of coordinator k-nearest queries (scatter, gather, merge).", obs.TicksSeconds)
	c.qWithinH = reg.Histogram("mapdr_coord_query_within_seconds",
		"Wall-clock latency of coordinator range queries (scatter, gather, merge).", obs.TicksSeconds)
	c.divergenceH = reg.Histogram("mapdr_coord_replica_seq_divergence",
		"Sequence-number gap (freshest minus stalest) per object whose replicas disagreed in a freshest-Seq merge.", obs.TicksCount)
}

// SetTraceSampling sets per-hop query tracing: every n-th coordinator
// query is traced end to end (encode, transport, per-member fan-out,
// node query, merge) and retained on GET /trace. 0 disables (the
// default), 1 traces every query. Untraced queries skip all span
// bookkeeping.
func (c *Coordinator) SetTraceSampling(n int) { c.sampler.SetEvery(int64(n)) }

// TraceRing exposes the coordinator's trace ring (GET /trace).
func (c *Coordinator) TraceRing() *obs.TraceRing { return c.traceRing }

// Obs returns the coordinator's own metrics registry.
func (c *Coordinator) Obs() *obs.Registry { return c.obsReg }

// queryTrace is the span bookkeeping of one sampled query. Unsampled
// queries carry a nil *queryTrace through the same code and skip all of
// it.
type queryTrace struct {
	id    uint64
	start time.Time
	hops  []hop // one per fan-out slot; fanOut sizes it
}

// hop is one member call of a traced fan-out, from start to end on the
// query clock, plus the spans the member's transport returned (relative
// to the call).
type hop struct {
	member     string
	start, end time.Duration
	wire       []wire.Span
}

// sampleTrace returns the bookkeeping for a query starting at start
// when it is sampled for tracing, nil otherwise.
func (c *Coordinator) sampleTrace(start time.Time) *queryTrace {
	if !c.sampler.Sample() {
		return nil
	}
	return &queryTrace{id: c.traceRing.NextID(), start: start}
}

// begin opens fan-out slot i's hop (fanOut closes it) and returns the
// node to call: the member's node bound to the trace where it can
// carry one (a remote node returns its transport and node-side spans
// into the hop), the plain node otherwise — for a direct call the hop
// itself is the node's query time.
func (tr *queryTrace) begin(i int, m *memberState) locserv.Node {
	h := &tr.hops[i]
	h.member, h.start = m.Name, time.Since(tr.start)
	if tb, ok := m.Node.(locserv.TraceBinder); ok {
		return tb.BindTrace(tr.id, &h.wire)
	}
	return m.Node
}

// finish closes out a sampled query into ring: every hop becomes a
// fan-out span followed by the member's own spans re-based onto the
// query clock, then a merge span from mergeStart to dur when the query
// spent time merging. A nil trace (the query was not sampled) is a
// no-op.
func (tr *queryTrace) finish(ring *obs.TraceRing, op string, t float64, mergeStart, dur time.Duration) {
	if tr == nil {
		return
	}
	var spans []obs.Span
	for _, h := range tr.hops {
		if h.member == "" {
			continue // slot skipped: member down
		}
		spans = append(spans, obs.Span{
			Stage: wire.StageFanout.String(), Member: h.member,
			Start: int64(h.start), Dur: int64(h.end - h.start),
		})
		for _, s := range h.wire {
			spans = append(spans, obs.Span{
				Stage: s.Stage.String(), Member: h.member,
				Start: int64(h.start) + int64(s.Start), Dur: int64(s.Dur),
			})
		}
	}
	if dur > mergeStart {
		spans = append(spans, obs.Span{
			Stage: wire.StageMerge.String(),
			Start: int64(mergeStart), Dur: int64(dur - mergeStart),
		})
	}
	ring.Add(obs.Trace{ID: tr.id, Op: op, T: t, Dur: int64(dur), Spans: spans})
}

// ObsSnapshot implements locserv.ObsSnapshotter for the coordinator: a
// cluster-wide metrics view assembled per scrape. The coordinator's own
// registry comes first; then per-member routing and health gauges
// (breaker state, hint-buffer depth and age, records routed); then each
// live member's own snapshot — fetched through the Node API (OpMetrics
// over the wire) and merged by name, so node histograms of the same
// family add bucket-wise into cluster-wide distributions. Members that
// are down, unreachable or too old to answer OpMetrics contribute
// nothing; the scrape itself never fails.
func (c *Coordinator) ObsSnapshot() (obs.Snapshot, error) {
	snap := c.obsReg.Snapshot()
	now := c.now()
	for _, m := range c.memberList() {
		labels := `member="` + m.Name + `"`
		up := 1.0
		if m.down.Load() {
			up = 0
		}
		snap.AddGauge("mapdr_member_up",
			"Member circuit-breaker state: 1 routable, 0 down.", labels, up)
		snap.AddCounter("mapdr_member_records_routed_total",
			"Update records routed to the member (all replicas counted).", labels, m.records.Load())
		snap.AddCounter("mapdr_member_query_errors_total",
			"Failed node calls against the member.", labels, m.errors.Load())
		hs := m.hints.Stats()
		snap.AddGauge("mapdr_member_hint_buffer_objects",
			"Distinct objects parked in the member's hinted-handoff buffer.", labels, float64(hs.Buffered))
		if hs.HasSince && now > hs.Since {
			snap.AddGauge("mapdr_member_hint_age_seconds",
				"Age (transport clock) of the oldest buffered hint for the member.", labels, now-hs.Since)
		}
		if m.down.Load() {
			continue
		}
		if os, ok := m.Node.(locserv.ObsSnapshotter); ok {
			if ms, err := os.ObsSnapshot(); err == nil {
				snap.Merge(ms)
			}
		}
	}
	if fi := c.FanInStats(); fi.Enabled {
		snap.AddGauge("mapdr_coord_fanin_log_epochs",
			"Highest epoch on this coordinator's membership log.", "", float64(fi.MaxEpoch))
		snap.AddGauge("mapdr_coord_fanin_log_records",
			"Membership-log records retained after compaction.", "", float64(fi.LogLen))
		if len(fi.PeerCover) > 0 {
			minCover := fi.MaxEpoch
			for _, cover := range fi.PeerCover {
				if cover < minCover {
					minCover = cover
				}
			}
			snap.AddGauge("mapdr_coord_fanin_log_lag_epochs",
				"Membership-log lag between coordinator fronts: max epoch minus the slowest peer's confirmed cover.",
				"", float64(fi.MaxEpoch-minCover))
		}
	}
	return snap, nil
}
