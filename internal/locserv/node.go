// Node API: the minimal surface one location-service node exposes to
// cluster coordination — registration, record delivery, the three query
// families, key-range export (rebalancing handoff) and stats. A
// NodeService implements it in-process over a Service; internal/cluster
// re-implements it over the wire query protocol (RemoteNode), so a
// coordinator scatter-gathers the same API whether its members share
// its process or a datacenter.

package locserv

import (
	"fmt"
	"sort"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// Querier answers the paper's three query families. *Service implements
// it directly; a cluster coordinator implements it by scatter-gather
// over its member nodes. sim.Fleet accounts errors through this
// interface, so the same simulation drives either.
type Querier interface {
	Position(id ObjectID, t float64) (geo.Point, bool)
	Nearest(p geo.Point, k int, t float64) []ObjectPos
	Within(r geo.Rect, t float64) []ObjectPos
}

// Registry registers and removes tracked objects. *Service implements
// it directly; a cluster coordinator routes each call to the owning
// node.
type Registry interface {
	Register(id ObjectID, pred core.Predictor) error
	Deregister(id ObjectID)
}

// NodeStats is a node's counter snapshot: store size and ingest
// counters plus the spatial-index health metrics.
type NodeStats struct {
	Objects        int
	Shards         int
	UpdatesApplied int64
	WireBytes      int64
	Index          IndexStats
}

// NodeStats returns the service's counter snapshot.
func (s *Service) NodeStats() NodeStats {
	return NodeStats{
		Objects:        s.Len(),
		Shards:         s.Shards(),
		UpdatesApplied: s.UpdatesApplied(),
		WireBytes:      s.WireBytes(),
		Index:          s.IndexStats(),
	}
}

// Payload converts the snapshot to its wire representation.
func (st NodeStats) Payload() wire.StatsPayload {
	return wire.StatsPayload{
		Objects:         int64(st.Objects),
		Shards:          int64(st.Shards),
		UpdatesApplied:  st.UpdatesApplied,
		WireBytes:       st.WireBytes,
		CellMoves:       st.Index.CellMoves,
		BoundRecomputes: st.Index.BoundRecomputes,
		CellsVisited:    st.Index.CellsVisited,
		RingExpansions:  st.Index.RingExpansions,
		IndexedQueries:  st.Index.IndexedQueries,
		ScanFallbacks:   st.Index.ScanFallbacks,
	}
}

// StatsFromPayload converts a wire stats payload back to a snapshot.
func StatsFromPayload(p wire.StatsPayload) NodeStats {
	return NodeStats{
		Objects:        int(p.Objects),
		Shards:         int(p.Shards),
		UpdatesApplied: p.UpdatesApplied,
		WireBytes:      p.WireBytes,
		Index: IndexStats{
			CellMoves:       p.CellMoves,
			BoundRecomputes: p.BoundRecomputes,
			CellsVisited:    p.CellsVisited,
			RingExpansions:  p.RingExpansions,
			IndexedQueries:  p.IndexedQueries,
			ScanFallbacks:   p.ScanFallbacks,
		},
	}
}

// Node is the API a location-service node exposes to a cluster: what a
// coordinator needs to route ingest, scatter queries and rebalance
// partitions — nothing else. Every method can fail, because an
// implementation may sit across a network.
//
// Register mints the predictor node-side (a predictor cannot travel in
// a frame): each node is configured with a predictor factory, and a
// cluster is correct when all nodes' factories agree with the sources'
// configuration — exactly the paper's shared-prediction-function
// contract, applied per node.
type Node interface {
	// Register adds an object, choosing its predictor via the node's
	// factory. Registering an existing id is an error.
	Register(id ObjectID) error
	// Deregister removes an object; unknown ids are a no-op.
	Deregister(id ObjectID) error
	// Deliver ingests update records (the count is how many belonged to
	// a registered or registrable object).
	Deliver(recs []wire.Record) (applied int, err error)
	// Position, Nearest and Within are the query families, with Querier
	// semantics plus a transport error. Every answer carries the
	// replica's protocol sequence number (Position explicitly, the hit
	// lists via ObjectPos.Seq) so a replicated coordinator can merge R
	// answers on freshness.
	Position(id ObjectID, t float64) (pos geo.Point, seq uint32, ok bool, err error)
	Nearest(p geo.Point, k int, t float64) ([]ObjectPos, error)
	Within(r geo.Rect, t float64) ([]ObjectPos, error)
	// Export snapshots the replicas whose wire.KeyHash falls in the
	// half-open ring range (lo, hi] (lo == hi selects all): one update
	// record per reported object (Seq preserved, so re-applying on
	// another node leaves its gating intact) plus the ids of
	// registered-but-unreported objects. Ids are sorted so handoff is
	// deterministic.
	Export(lo, hi uint64) (recs []wire.Record, ids []ObjectID, err error)
	// NodeStats returns the node's counter snapshot.
	NodeStats() (NodeStats, error)
}

// Export snapshots the service's replicas in a key-hash range; see
// Node.Export for the contract.
func (s *Service) Export(lo, hi uint64) (recs []wire.Record, ids []ObjectID, err error) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, e := range sh.objs {
			if !wire.InKeyRange(wire.KeyHash(string(id)), lo, hi) {
				continue
			}
			if rep, ok := e.srv.LastReport(); ok {
				recs = append(recs, wire.Record{
					ID: string(id),
					// ReasonInit: on the importing node this is the
					// object's first report.
					Update: core.Update{Reason: core.ReasonInit, Report: rep},
				})
			} else {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return recs, ids, nil
}

// NodeService binds a Service to a predictor factory, implementing
// Node in-process. The factory serves Register and auto-registration on
// Deliver (records for unknown objects mint a predictor instead of
// erroring), so a node can join a cluster empty and be filled by
// handoff and routed ingest alone.
type NodeService struct {
	s   *Service
	new AutoRegister
}

// NewNodeService returns a Node over svc. factory may be nil, which
// rejects Register and unknown-object records.
func NewNodeService(svc *Service, factory AutoRegister) *NodeService {
	return &NodeService{s: svc, new: factory}
}

// Service returns the underlying store.
func (n *NodeService) Service() *Service { return n.s }

// Register implements Node.
func (n *NodeService) Register(id ObjectID) error {
	if n.new == nil {
		return fmt.Errorf("locserv: node has no predictor factory")
	}
	pred := n.new(id)
	if pred == nil {
		return fmt.Errorf("locserv: object %q rejected by predictor factory", id)
	}
	return n.s.Register(id, pred)
}

// RegisterWith registers id with an explicit predictor, bypassing the
// factory — the in-process fast path a coordinator uses when its nodes
// share its address space.
func (n *NodeService) RegisterWith(id ObjectID, pred core.Predictor) error {
	return n.s.Register(id, pred)
}

// Deregister implements Node.
func (n *NodeService) Deregister(id ObjectID) error {
	n.s.Deregister(id)
	return nil
}

// Deliver implements Node.
func (n *NodeService) Deliver(recs []wire.Record) (int, error) {
	return n.s.DeliverRecords(recs, n.new)
}

// Position implements Node.
func (n *NodeService) Position(id ObjectID, t float64) (geo.Point, uint32, bool, error) {
	p, seq, ok := n.s.PositionSeq(id, t)
	return p, seq, ok, nil
}

// Nearest implements Node.
func (n *NodeService) Nearest(p geo.Point, k int, t float64) ([]ObjectPos, error) {
	return n.s.Nearest(p, k, t), nil
}

// Within implements Node.
func (n *NodeService) Within(r geo.Rect, t float64) ([]ObjectPos, error) {
	return n.s.Within(r, t), nil
}

// Export implements Node.
func (n *NodeService) Export(lo, hi uint64) ([]wire.Record, []ObjectID, error) {
	return n.s.Export(lo, hi)
}

// NodeStats implements Node.
func (n *NodeService) NodeStats() (NodeStats, error) { return n.s.NodeStats(), nil }

// ObsSnapshot implements ObsSnapshotter over the underlying store.
func (n *NodeService) ObsSnapshot() (obs.Snapshot, error) { return n.s.ObsSnapshot() }

// TraceRing exposes the store's trace ring for node-side retention.
func (n *NodeService) TraceRing() *obs.TraceRing { return n.s.TraceRing() }

// ObsSnapshotter is the optional Node extension for full metrics
// snapshots — what OpMetrics and GET /metrics serve. NodeService and
// cluster.RemoteNode implement it; nodes without it answer OpMetrics
// with an in-band error.
type ObsSnapshotter interface {
	ObsSnapshot() (obs.Snapshot, error)
}

// traceRinger is the optional Node extension for retaining traced
// queries node-side.
type traceRinger interface {
	TraceRing() *obs.TraceRing
}

// TraceBinder is the optional Node extension that makes tracing a
// property of the ordinary query methods instead of a second set of
// them: BindTrace returns a view of the node whose calls carry the trace
// id and append the hop spans they observe (encode, rtt, decode, node
// query) to *spans. The view serves one traced member call on one
// goroutine. A node reached over a transport implements it, and so must
// every wrapper around such a node, by forwarding; an in-process node
// needs none — its query time is the span of the caller's own call.
type TraceBinder interface {
	BindTrace(trace uint64, spans *[]wire.Span) Node
}

// ServeQuery answers one wire query request against a node — the
// server side of the query protocol, shared by the member stream and
// the in-process loopback. Node errors become in-band
// error responses, so the transport only ever fails for transport
// reasons.
//
// A request with a nonzero Trace id gets the server-side query span
// (StageNodeQuery) appended to the response and, when the node retains
// traces, a copy recorded in its ring. Untraced requests skip all
// timing.
func ServeQuery(n Node, req wire.QueryRequest) wire.QueryResponse {
	if req.Trace == 0 {
		return serveQueryOp(n, req)
	}
	start := time.Now()
	resp := serveQueryOp(n, req)
	dur := time.Since(start)
	if resp.Err == "" {
		resp.Spans = append(resp.Spans, wire.Span{Stage: wire.StageNodeQuery, Dur: uint64(dur)})
	}
	if tr, ok := n.(traceRinger); ok {
		if ring := tr.TraceRing(); ring != nil {
			ring.Add(obs.Trace{
				ID: req.Trace, Op: req.Op.String(), T: req.T, Dur: int64(dur),
				Spans: []obs.Span{{Stage: wire.StageNodeQuery.String(), Dur: int64(dur)}},
			})
		}
	}
	return resp
}

// serveQueryOp dispatches one query op; see ServeQuery.
func serveQueryOp(n Node, req wire.QueryRequest) wire.QueryResponse {
	resp := wire.QueryResponse{Op: req.Op}
	fail := func(err error) wire.QueryResponse {
		resp.Err = err.Error()
		if resp.Err == "" {
			resp.Err = "unknown error"
		}
		return resp
	}
	switch req.Op {
	case wire.OpPosition:
		p, seq, ok, err := n.Position(ObjectID(req.ID), req.T)
		if err != nil {
			return fail(err)
		}
		if ok {
			resp.Found = true
			resp.Hits = []wire.QueryHit{{ID: req.ID, X: p.X, Y: p.Y, Seq: uint64(seq)}}
		}
	case wire.OpNearest:
		hits, err := n.Nearest(geo.Pt(req.X, req.Y), req.K, req.T)
		if err != nil {
			return fail(err)
		}
		resp.Hits = toWireHits(hits, true)
	case wire.OpWithin:
		hits, err := n.Within(geo.Rect{Min: geo.Pt(req.MinX, req.MinY), Max: geo.Pt(req.MaxX, req.MaxY)}, req.T)
		if err != nil {
			return fail(err)
		}
		page, next := pageWithin(hits, req.After, req.Limit)
		resp.Hits = toWireHits(page, false)
		resp.Next = next
	case wire.OpStats:
		st, err := n.NodeStats()
		if err != nil {
			return fail(err)
		}
		resp.Stats = st.Payload()
	case wire.OpRegister:
		if err := n.Register(ObjectID(req.ID)); err != nil {
			return fail(err)
		}
	case wire.OpDeregister:
		if err := n.Deregister(ObjectID(req.ID)); err != nil {
			return fail(err)
		}
	case wire.OpExport:
		recs, ids, err := n.Export(req.Lo, req.Hi)
		if err != nil {
			return fail(err)
		}
		resp.Records = recs
		resp.IDs = make([]string, len(ids))
		for i, id := range ids {
			resp.IDs[i] = string(id)
		}
	case wire.OpMetrics:
		os, ok := n.(ObsSnapshotter)
		if !ok {
			return fail(fmt.Errorf("locserv: node does not export metrics"))
		}
		snap, err := os.ObsSnapshot()
		if err != nil {
			return fail(err)
		}
		resp.Metrics = snap.AppendBinary(nil)
	default:
		return fail(fmt.Errorf("locserv: unknown query op %d", req.Op))
	}
	return resp
}

// withinPageSlack is the frame headroom a Within page leaves for the
// response envelope (header, version/op/status, hit count, Next cursor).
const withinPageSlack = 64 + 2*wire.MaxIDLen

// pageWithin cuts one page out of a full, id-sorted Within answer:
// hits after the cursor, bounded by limit (0: no count bound) and by
// what fits a single response frame alongside the envelope. next is the
// cursor of the following page, "" on the last one.
func pageWithin(hits []ObjectPos, after string, limit int) (page []ObjectPos, next string) {
	if after != "" {
		skip := sort.Search(len(hits), func(i int) bool { return string(hits[i].ID) > after })
		hits = hits[skip:]
	}
	budget := wire.MaxFrameBody - withinPageSlack
	for i := range hits {
		budget -= wire.QueryHitSize(wire.QueryHit{ID: string(hits[i].ID), Seq: uint64(hits[i].Seq)})
		if budget < 0 || (limit > 0 && i >= limit) {
			return hits[:i], string(hits[i-1].ID)
		}
	}
	return hits, ""
}

// toWireHits converts query results to wire hits. Dist rides only for
// nearest answers; a Within hit's Dist is zero by construction either
// way.
func toWireHits(hits []ObjectPos, withDist bool) []wire.QueryHit {
	out := make([]wire.QueryHit, len(hits))
	for i, h := range hits {
		out[i] = wire.QueryHit{ID: string(h.ID), X: h.Pos.X, Y: h.Pos.Y, Seq: uint64(h.Seq)}
		if withDist {
			out[i].Dist = h.Dist
		}
	}
	return out
}

// FromWireHits converts wire hits back to query results. Empty stays
// nil, matching what the Querier methods return for empty answers.
func FromWireHits(hits []wire.QueryHit) []ObjectPos {
	if len(hits) == 0 {
		return nil
	}
	out := make([]ObjectPos, len(hits))
	for i, h := range hits {
		out[i] = ObjectPos{ID: ObjectID(h.ID), Pos: geo.Pt(h.X, h.Y), Dist: h.Dist, Seq: uint32(h.Seq)}
	}
	return out
}

// QueryServer adapts the node to wire.QueryServer.
func (n *NodeService) QueryServer() wire.QueryServer {
	return wire.QueryServerFunc(func(req wire.QueryRequest) wire.QueryResponse {
		return ServeQuery(n, req)
	})
}
