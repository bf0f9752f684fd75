package cluster

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// setAll makes every settable field under v non-zero — nil pointers
// allocated, empty slices given one element — so that marshalling v
// shows every JSON key its type can emit, omitempty ones included.
func setAll(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		setAll(v.Elem())
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		setAll(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setAll(v.Field(i))
		}
	}
}

// TestClusterViewWireShape pins the GET /cluster schema: the full key
// set of the merged view of a fan-in + self-heal coordinator, at every
// level. Operators' dashboards, bench/procs.go (nodes[].hinted) and
// cmd/locserver's tests (nodes[].objects, total_objects) read these
// names, so a refactor of the structs behind them must not move one.
func TestClusterViewWireShape(t *testing.T) {
	fx := newFanInPair(t, 3, 2, FanInConfig{LeaseFor: 5, GossipEvery: 1})
	fx.a.EnableSelfHeal(DefaultSelfHealConfig())
	view := fx.a.ClusterView()
	if view.FanIn == nil || len(view.Coordinators) != 2 || len(view.Nodes) != 3 {
		t.Fatalf("not a merged fan-in view: fanin %v, %d coordinators, %d nodes", view.FanIn, len(view.Coordinators), len(view.Nodes))
	}
	setAll(reflect.ValueOf(&view).Elem())
	raw, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keys := func(obj any) []string {
		var ks []string
		for k := range obj.(map[string]any) {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	got := map[string][]string{
		"":               keys(doc),
		"nodes[]":        keys(doc["nodes"].([]any)[0]),
		"migration":      keys(doc["migration"]),
		"selfheal":       keys(doc["selfheal"]),
		"fanin":          keys(doc["fanin"]),
		"coordinators[]": keys(doc["coordinators"].([]any)[0]),
	}
	want := map[string][]string{ // sorted; taken from the commit before the stats structs carried the tags
		"": {"coordinator", "coordinators", "degraded_queries", "fanin", "migration", "nodes", "queries",
			"query_errors", "read_repairs", "replicas", "selfheal", "total_objects"},
		"nodes[]": {"batches", "down", "down_for", "errors", "health", "hinted", "hints_drained", "hints_pending",
			"hints_requeued", "index_bound_recomputes", "index_cell_moves", "index_cells_visited", "index_queries",
			"index_ring_expansions", "index_scan_fallbacks", "name", "objects", "queries", "records", "shards",
			"updates_applied"},
		"migration": {"aborts", "active", "halt_cause", "halted", "kind", "last_outcome", "max_swap_ns", "migrations",
			"ranges", "ranges_committed", "ranges_copying", "ranges_dual", "ranges_pending", "records_moved", "resumes",
			"target", "total_records_moved"},
		"selfheal": {"demoted", "demotion_failures", "demotions", "enabled", "heartbeats", "reweights", "suspects", "trips"},
		"fanin": {"appends", "applies", "enabled", "fence_repairs", "floor", "gossip_errors", "gossips", "hints_forwarded",
			"holding_lease", "id", "last_gossip_error", "lease_acquired", "lease_denied", "lease_holder", "lease_steals",
			"lease_until", "log_compactions", "log_len", "max_epoch", "open_runs", "peers", "rejects", "resumes"},
		"coordinators[]": {"degraded_queries", "holding_lease", "id", "log_len", "open_runs", "queries", "query_errors",
			"reachable", "read_repairs"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GET /cluster key set moved:\n got %#v\nwant %#v", got, want)
	}
}

// TestMergeClusterView pins the values of the /cluster fan-in merge
// against the rules the clusterJSON comment states: per-front routing
// and hint counters sum, node-side fields take the maximum, nodes are
// sorted by name with total_objects recomputed from them, migration
// lifetime counters sum (max_swap_ns takes the maximum) and a peer's
// active run is adopted with them, and self-heal counters sum, enabled
// ORs and demoted is a sorted union.
func TestMergeClusterView(t *testing.T) {
	cases := []struct {
		name        string
		local, peer clusterJSON
		want        clusterJSON
	}{{
		name: "overlapping node",
		local: clusterJSON{Queries: 5, QueryErrors: 1, Degraded: 2, Repairs: 3, TotalObjects: 30,
			Nodes: []memberJSON{{Name: "n1", Health: "up", Records: 10, Batches: 2, Queries: 4, Errors: 1,
				Hinted: 6, Drained: 5, Requeued: 1, Pending: 1, Objects: 30, Shards: 4, Applied: 100,
				CellMoves: 7, BoundRecomputes: 3, CellsVisited: 50, RingExpansions: 9, IndexedQueries: 20}}},
		peer: clusterJSON{Queries: 7, Degraded: 1, Repairs: 4,
			Nodes: []memberJSON{{Name: "n1", Health: "up", Records: 20, Batches: 3, Queries: 6, Errors: 2,
				Hinted: 1, Requeued: 2, Pending: 4, Shards: 2, Applied: 120,
				CellMoves: 8, BoundRecomputes: 1, CellsVisited: 60, RingExpansions: 2, IndexedQueries: 25, ScanFallbacks: 1}}},
		want: clusterJSON{Queries: 12, QueryErrors: 1, Degraded: 3, Repairs: 7, TotalObjects: 30,
			Nodes: []memberJSON{{Name: "n1", Health: "up", Records: 30, Batches: 5, Queries: 10, Errors: 3,
				Hinted: 7, Drained: 5, Requeued: 3, Pending: 5, Objects: 30, Shards: 4, Applied: 120,
				CellMoves: 8, BoundRecomputes: 3, CellsVisited: 60, RingExpansions: 9, IndexedQueries: 25, ScanFallbacks: 1}}},
	}, {
		name:  "disjoint nodes",
		local: clusterJSON{TotalObjects: 5, Nodes: []memberJSON{{Name: "n2", Records: 1, Objects: 5}}},
		peer:  clusterJSON{TotalObjects: 9, Nodes: []memberJSON{{Name: "n3", Objects: 2}, {Name: "n0", Records: 4, Objects: 7}}},
		want: clusterJSON{TotalObjects: 14, Nodes: []memberJSON{
			{Name: "n0", Records: 4, Objects: 7}, {Name: "n2", Records: 1, Objects: 5}, {Name: "n3", Objects: 2}}},
	}, {
		name: "peer's active run adopted",
		local: clusterJSON{Migration: MigrationStats{Migrations: 2, Aborts: 1, TotalRecordsMoved: 100,
			MaxSwapNanos: 50, LastOutcome: "committed join n4"}},
		peer: clusterJSON{Migration: MigrationStats{Active: true, Kind: "leave", Target: "n2",
			Ranges: 8, RangesDual: 3, RangesCommitted: 5, RecordsMoved: 40,
			Migrations: 1, Resumes: 2, TotalRecordsMoved: 30, MaxSwapNanos: 80}},
		want: clusterJSON{Migration: MigrationStats{Active: true, Kind: "leave", Target: "n2",
			Ranges: 8, RangesDual: 3, RangesCommitted: 5, RecordsMoved: 40,
			Migrations: 3, Aborts: 1, Resumes: 2, TotalRecordsMoved: 130, MaxSwapNanos: 80,
			LastOutcome: "committed join n4"}},
	}, {
		name: "own active run kept",
		local: clusterJSON{Migration: MigrationStats{Active: true, Kind: "join", Target: "n5",
			Ranges: 4, RangesCopying: 4, Migrations: 1, MaxSwapNanos: 90}},
		peer: clusterJSON{Migration: MigrationStats{Migrations: 2, Aborts: 1, TotalRecordsMoved: 5,
			MaxSwapNanos: 10, LastOutcome: "aborted leave n2"}},
		want: clusterJSON{Migration: MigrationStats{Active: true, Kind: "join", Target: "n5",
			Ranges: 4, RangesCopying: 4, Migrations: 3, Aborts: 1, TotalRecordsMoved: 5, MaxSwapNanos: 90}},
	}, {
		name: "self-heal",
		local: clusterJSON{SelfHeal: SelfHealStats{Heartbeats: 3, Suspects: 1, Trips: 1, Demotions: 1,
			Reweights: 2, Demoted: []string{"n1", "n4"}}},
		peer: clusterJSON{SelfHeal: SelfHealStats{Enabled: true, Heartbeats: 5, Trips: 2, Demotions: 1,
			DemotionFailures: 1, Demoted: []string{"n4", "n2"}}},
		want: clusterJSON{SelfHeal: SelfHealStats{Enabled: true, Heartbeats: 8, Suspects: 1, Trips: 3,
			Demotions: 2, DemotionFailures: 1, Reweights: 2, Demoted: []string{"n1", "n2", "n4"}}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.local
			mergeClusterView(&got, tc.peer)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("merged view\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
