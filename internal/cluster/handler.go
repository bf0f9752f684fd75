package cluster

import (
	"encoding/json"
	"net/http"
	"sort"

	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// memberJSON is one node's entry in the /cluster report. The routing
// counters (records, batches, queries, errors, hint accounting) are
// per-coordinator and sum across a fan-in tier; the node-side stats
// (objects, shards, updates_applied) describe the shared node itself,
// so the merge takes each field's maximum across reporters.
type memberJSON struct {
	Name     string  `json:"name"`
	Records  int64   `json:"records"`
	Batches  int64   `json:"batches"`
	Queries  int64   `json:"queries"`
	Errors   int64   `json:"errors"`
	Down     bool    `json:"down"`
	Health   string  `json:"health"`
	DownFor  float64 `json:"down_for,omitempty"`
	Hinted   int64   `json:"hinted"`
	Drained  int64   `json:"hints_drained"`
	Requeued int64   `json:"hints_requeued"`
	Pending  int     `json:"hints_pending"`
	Objects  int     `json:"objects"`
	Shards   int     `json:"shards"`
	Applied  int64   `json:"updates_applied"`
	// Live spatial-index health counters, node-side like Objects and
	// Applied: the merge takes each field's maximum across reporters.
	CellMoves       int64 `json:"index_cell_moves"`
	BoundRecomputes int64 `json:"index_bound_recomputes"`
	CellsVisited    int64 `json:"index_cells_visited"`
	RingExpansions  int64 `json:"index_ring_expansions"`
	IndexedQueries  int64 `json:"index_queries"`
	ScanFallbacks   int64 `json:"index_scan_fallbacks"`
}

// coordJSON summarizes one coordinator of a fan-in tier in the merged
// /cluster report.
type coordJSON struct {
	ID          string `json:"id"`
	Reachable   bool   `json:"reachable"`
	Queries     int64  `json:"queries"`
	QueryErrors int64  `json:"query_errors"`
	Degraded    int64  `json:"degraded_queries"`
	Repairs     int64  `json:"read_repairs"`
	Holding     bool   `json:"holding_lease"`
	LogLen      int    `json:"log_len"`
	OpenRuns    int    `json:"open_runs"`
}

// clusterJSON is the GET /cluster schema. A single coordinator reports
// its local view. With fan-in enabled the report is merged across the
// coordinator tier: coordinator-side counters (queries, query_errors,
// degraded_queries, read_repairs, per-node routing counters, migration
// and selfheal lifetime counters) are summed, node-side stats take the
// freshest reporter per node, demoted identities union, the active
// migration is whichever coordinator is driving one, and coordinators
// lists every front with its reachability — so any front answers for
// the whole tier. fanin itself stays this coordinator's own view (its
// log, its lease fold). The migration, selfheal and fanin blocks are
// the stats snapshots themselves; their JSON tags are the schema.
type clusterJSON struct {
	Replicas     int            `json:"replicas"`
	Coordinator  string         `json:"coordinator,omitempty"`
	Nodes        []memberJSON   `json:"nodes"`
	Queries      int64          `json:"queries"`
	QueryErrors  int64          `json:"query_errors"`
	Degraded     int64          `json:"degraded_queries"`
	Repairs      int64          `json:"read_repairs"`
	TotalObjects int            `json:"total_objects"`
	Migration    MigrationStats `json:"migration"`
	SelfHeal     SelfHealStats  `json:"selfheal"`
	FanIn        *FanInStats    `json:"fanin,omitempty"`
	Coordinators []coordJSON    `json:"coordinators,omitempty"`
}

// localClusterView builds this coordinator's own /cluster report — the
// view PeerOpView serves to peers (never merged, so view exchanges
// cannot recurse).
func localClusterView(c *Coordinator) clusterJSON {
	out := clusterJSON{
		Replicas: c.Replicas(), Queries: c.Queries(), QueryErrors: c.QueryErrors(),
		Degraded: c.DegradedQueries(), Repairs: c.Repairs(),
		Migration: c.MigrationStats(), SelfHeal: c.SelfHealStats(),
	}
	for _, ms := range c.MemberStats() {
		out.Nodes = append(out.Nodes, memberJSON{
			Name:     ms.Name,
			Records:  ms.Records,
			Batches:  ms.Batches,
			Queries:  ms.Queries,
			Errors:   ms.Errors,
			Down:     ms.Down,
			Health:   ms.Health.String(),
			DownFor:  ms.DownFor,
			Hinted:   ms.Hints.Hinted,
			Drained:  ms.Hints.Drained,
			Requeued: ms.Hints.Requeued,
			Pending:  ms.Hints.Buffered,
			Objects:  ms.Node.Objects,
			Shards:   ms.Node.Shards,
			Applied:  ms.Node.UpdatesApplied,

			CellMoves:       ms.Node.CellMoves,
			BoundRecomputes: ms.Node.BoundRecomputes,
			CellsVisited:    ms.Node.CellsVisited,
			RingExpansions:  ms.Node.RingExpansions,
			IndexedQueries:  ms.Node.IndexedQueries,
			ScanFallbacks:   ms.Node.ScanFallbacks,
		})
		out.TotalObjects += ms.Node.Objects
	}
	if fi := c.FanInStats(); fi.Enabled {
		out.Coordinator = fi.ID
		out.FanIn = &fi
	}
	return out
}

// localClusterJSON is the PeerOpView payload: the local view, encoded.
func (c *Coordinator) localClusterJSON() ([]byte, error) {
	view := localClusterView(c)
	return json.Marshal(view)
}

func coordSummary(view clusterJSON, id string) coordJSON {
	s := coordJSON{
		ID: id, Reachable: true,
		Queries: view.Queries, QueryErrors: view.QueryErrors,
		Degraded: view.Degraded, Repairs: view.Repairs,
	}
	if view.FanIn != nil {
		s.Holding = view.FanIn.Holding
		s.LogLen = view.FanIn.LogLen
		s.OpenRuns = view.FanIn.OpenRuns
	}
	return s
}

// mergeClusterView folds one peer's local view into out per the
// clusterJSON merge rules.
func mergeClusterView(out *clusterJSON, pv clusterJSON) {
	out.Queries += pv.Queries
	out.QueryErrors += pv.QueryErrors
	out.Degraded += pv.Degraded
	out.Repairs += pv.Repairs
	byName := make(map[string]int, len(out.Nodes))
	for i := range out.Nodes {
		byName[out.Nodes[i].Name] = i
	}
	for _, pn := range pv.Nodes {
		i, ok := byName[pn.Name]
		if !ok {
			out.Nodes = append(out.Nodes, pn)
			continue
		}
		n := &out.Nodes[i]
		n.Records += pn.Records
		n.Batches += pn.Batches
		n.Queries += pn.Queries
		n.Errors += pn.Errors
		n.Hinted += pn.Hinted
		n.Drained += pn.Drained
		n.Requeued += pn.Requeued
		n.Pending += pn.Pending
		// Node-side stats describe the same shared node: take the
		// freshest sample (a coordinator that sees the node down reports
		// zeros).
		n.Applied = max(n.Applied, pn.Applied)
		n.Objects = max(n.Objects, pn.Objects)
		n.Shards = max(n.Shards, pn.Shards)
		n.CellMoves = max(n.CellMoves, pn.CellMoves)
		n.BoundRecomputes = max(n.BoundRecomputes, pn.BoundRecomputes)
		n.CellsVisited = max(n.CellsVisited, pn.CellsVisited)
		n.RingExpansions = max(n.RingExpansions, pn.RingExpansions)
		n.IndexedQueries = max(n.IndexedQueries, pn.IndexedQueries)
		n.ScanFallbacks = max(n.ScanFallbacks, pn.ScanFallbacks)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Name < out.Nodes[j].Name })
	out.TotalObjects = 0
	for i := range out.Nodes {
		out.TotalObjects += out.Nodes[i].Objects
	}
	m, pm := &out.Migration, &pv.Migration
	m.Migrations += pm.Migrations
	m.Aborts += pm.Aborts
	m.Resumes += pm.Resumes
	m.TotalRecordsMoved += pm.TotalRecordsMoved
	m.MaxSwapNanos = max(m.MaxSwapNanos, pm.MaxSwapNanos)
	if pm.Active && !m.Active {
		// The peer drives a run this coordinator only follows: its
		// per-range machine is the authoritative progress.
		active := *pm
		active.Migrations, active.Aborts, active.Resumes = m.Migrations, m.Aborts, m.Resumes
		active.TotalRecordsMoved, active.MaxSwapNanos = m.TotalRecordsMoved, m.MaxSwapNanos
		if active.LastOutcome == "" {
			active.LastOutcome = m.LastOutcome
		}
		*m = active
	}
	h, ph := &out.SelfHeal, &pv.SelfHeal
	h.Enabled = h.Enabled || ph.Enabled
	h.Heartbeats += ph.Heartbeats
	h.Suspects += ph.Suspects
	h.Trips += ph.Trips
	h.Demotions += ph.Demotions
	h.DemotionFailures += ph.DemotionFailures
	h.Reweights += ph.Reweights
	seen := make(map[string]bool, len(h.Demoted)+len(ph.Demoted))
	for _, name := range h.Demoted {
		seen[name] = true
	}
	for _, name := range ph.Demoted {
		if !seen[name] {
			h.Demoted = append(h.Demoted, name)
		}
	}
	sort.Strings(h.Demoted)
}

// ClusterView builds the GET /cluster report: the local view, merged
// across the coordinator tier when fan-in is enabled (each peer is
// asked for its own local view over the peer channel; unreachable
// peers are listed with reachable=false and contribute nothing).
func (c *Coordinator) ClusterView() clusterJSON {
	out := localClusterView(c)
	f := c.fanin.Load()
	if f == nil {
		return out
	}
	out.Coordinators = append(out.Coordinators, coordSummary(out, f.id))
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	peers := make([]wire.PeerTransport, 0, len(names))
	for _, name := range names {
		peers = append(peers, f.peers[name])
	}
	f.mu.Unlock()
	for i, pt := range peers {
		resp, err := pt.Peer(wire.PeerRequest{Op: wire.PeerOpView, From: f.id})
		if err != nil || resp.Err != "" {
			out.Coordinators = append(out.Coordinators, coordJSON{ID: names[i]})
			continue
		}
		var pv clusterJSON
		if err := json.Unmarshal(resp.View, &pv); err != nil {
			out.Coordinators = append(out.Coordinators, coordJSON{ID: names[i]})
			continue
		}
		id := pv.Coordinator
		if id == "" {
			id = names[i]
		}
		mergeClusterView(&out, pv)
		out.Coordinators = append(out.Coordinators, coordSummary(pv, id))
	}
	return out
}

// Handler exposes the coordinator over HTTP with a store's query API
// (answers scatter-gathered across the cluster) and /metrics, /stats
// and /trace (over the merged cluster snapshot), plus:
//
//	GET  /healthz   {"ok":true}: liveness only, never a fan-out
//	POST /updates   binary update frames, routed per partition
//	GET  /member    the member stream (Upgrade: mapdr-member/2) serving
//	                peer frames only: fan-in log gossip, hint
//	                forwarding, /cluster view exchange
//	GET  /cluster   routing and node stats — merged across the
//	                coordinator tier when fan-in is enabled
//
// so query clients cannot tell a coordinator from a single node.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	locserv.RouteQueryAPI(mux, c)
	locserv.RouteObsAPI(mux, c, c.TraceRing())
	mux.HandleFunc("GET /healthz", locserv.HandleLive)
	mux.HandleFunc("POST /updates", locserv.IngestHandler(c.DeliverRecords))
	mux.Handle("GET "+wire.StreamPath, wire.StreamHandler(wire.StreamServer{Peer: c.ServePeer}))
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, _ *http.Request) {
		locserv.WriteJSON(w, c.ClusterView())
	})
	return mux
}
