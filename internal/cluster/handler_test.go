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
