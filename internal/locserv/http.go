package locserv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"mapdr/internal/geo"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// maxIngestBody bounds one /updates request body: a few frames of the
// largest permitted size.
const maxIngestBody = 4 * (wire.MaxFrameBody + 4)

// RecordSink ingests decoded update records; the HTTP ingest handler is
// generic over it so the same endpoint fronts a single service or a
// cluster coordinator.
type RecordSink func(recs []wire.Record) (applied int, err error)

// Handler exposes the service as a query-only HTTP API:
//
//	GET /healthz                           -> {"ok":true,"objects":n}
//	GET /stats                             -> object/shard/update/byte/index counters
//	GET /objects                           -> ["id", ...]
//	GET /position?id=car1&t=120            -> {"id":"car1","x":..,"y":..}
//	GET /nearest?x=0&y=0&k=3&t=120         -> [{"id":..,"x":..,"y":..,"dist":..}]
//	GET /within?minx=&miny=&maxx=&maxy=&t= -> [{"id":..,"x":..,"y":..}]
//
// HandlerWithIngest additionally accepts protocol updates; a cluster
// coordinator mounts the same API over its scatter-gather Querier via
// QueryAPIHandler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, s)
	return mux
}

// HandlerWithIngest is Handler plus the binary ingest endpoint:
//
//	POST /updates  (application/x-mapdr-frame)
//
// The body is a stream of wire frames; the decoded records feed the
// sharded store through ApplyBatch. auto controls whether updates for
// unknown objects register them on the fly (nil: they are rejected).
// The response is a wire.IngestResponse JSON body.
func (s *Service) HandlerWithIngest(auto AutoRegister) http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, s)
	mux.HandleFunc("POST /updates", IngestHandler(func(recs []wire.Record) (int, error) {
		return s.DeliverRecords(recs, auto)
	}))
	return mux
}

// Handler mounts the full node API: queries, binary ingest (with the
// node's factory auto-registering unknown objects) and the member
// stream a cluster coordinator speaks:
//
//	GET /member  (Upgrade: mapdr-member/1)
//
// The upgraded connection carries the coordinator's query-protocol and
// update frames, multiplexed (wire.StreamHandler). This is what a
// cluster member serves.
func (n *NodeService) Handler() http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, n.s)
	mux.HandleFunc("POST /updates", IngestHandler(n.Deliver))
	mux.Handle("GET "+wire.StreamPath, wire.StreamHandler(n.QueryServer(), n.Deliver))
	return mux
}

// QueryAPIHandler mounts the JSON query API over any Querier — the
// sharded store or a cluster coordinator. Optional capabilities are
// detected: /stats requires NodeStats(), /objects requires Objects().
func QueryAPIHandler(q Querier) http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, q)
	return mux
}

// statser, lener and objectser are the optional capabilities of a
// Querier behind the HTTP API.
type statser interface{ NodeStats() NodeStats }
type lener interface{ Len() int }
type objectser interface{ Objects() []ObjectID }

func RouteQueryAPI(mux *http.ServeMux, q Querier) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// A liveness probe must stay cheap: report a local object count
		// when one exists (Service.Len), but never fan out to remote
		// members the way /stats aggregation does.
		body := map[string]any{"ok": true}
		if l, ok := q.(lener); ok {
			body["objects"] = l.Len()
		}
		WriteJSON(w, body)
	})
	if st, ok := q.(statser); ok {
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, statsToJSON(st.NodeStats()))
		})
	}
	if ob, ok := q.(objectser); ok {
		mux.HandleFunc("GET /objects", func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, ob.Objects())
		})
	}
	if os, ok := q.(ObsSnapshotter); ok {
		mux.Handle("GET /metrics", obs.MetricsHandler(func() obs.Snapshot {
			// A failed member scrape degrades to whatever assembled; the
			// snapshot source logs nothing and the scrape stays valid text.
			snap, _ := os.ObsSnapshot()
			return snap
		}))
	}
	if tr, ok := q.(traceRinger); ok {
		if ring := tr.TraceRing(); ring != nil {
			mux.Handle("GET /trace", obs.TraceHandler(ring))
		}
	}
	mux.HandleFunc("GET /position", func(w http.ResponseWriter, r *http.Request) {
		handlePosition(w, r, q)
	})
	mux.HandleFunc("GET /nearest", func(w http.ResponseWriter, r *http.Request) {
		handleNearest(w, r, q)
	})
	mux.HandleFunc("GET /within", func(w http.ResponseWriter, r *http.Request) {
		handleWithin(w, r, q)
	})
}

// WriteJSON marshals v before touching the ResponseWriter, so an
// encoding failure still yields a well-formed 500 instead of a torn
// body with a 200 status.
func WriteJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		// The client went away mid-response; nothing useful remains to
		// be done, but the error is not silently discarded by contract:
		// Write errors after headers cannot change the response.
		return
	}
}

// queryFloats parses the named query parameters of a request — the
// query string is decoded once, not once per parameter — and reports
// whether every one is present and a number.
func queryFloats(q url.Values, keys ...string) ([]float64, bool) {
	vals := make([]float64, len(keys))
	for i, key := range keys {
		v, err := strconv.ParseFloat(q.Get(key), 64)
		if err != nil {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// statsJSON is the GET /stats body. wire_bytes counts applied report
// encodings only (Service.WireBytes) — record ids and frame headers are
// transport overhead, visible in the client's wire.Stats instead. The
// index_* counters expose the live spatial index's health: write-path
// cell moves and fold recomputes, read-path pruning effort (cells
// visited; index_ring_expansions counts the cells k-NN queries took off
// their bound-ordered frontiers — the field name is kept for its
// readers), and the indexed-vs-scan query mix (scan fallbacks only
// happen for unbounded-predictor objects).
type statsJSON struct {
	Objects              int   `json:"objects"`
	Shards               int   `json:"shards"`
	UpdatesApplied       int64 `json:"updates_applied"`
	WireBytes            int64 `json:"wire_bytes"`
	IndexCellMoves       int64 `json:"index_cell_moves"`
	IndexBoundRecomputes int64 `json:"index_bound_recomputes"`
	IndexCellsVisited    int64 `json:"index_cells_visited"`
	IndexRingExpansions  int64 `json:"index_ring_expansions"`
	IndexedQueries       int64 `json:"index_queries"`
	IndexScanFallbacks   int64 `json:"index_scan_fallbacks"`
}

func statsToJSON(st NodeStats) statsJSON {
	return statsJSON{
		Objects:              st.Objects,
		Shards:               st.Shards,
		UpdatesApplied:       st.UpdatesApplied,
		WireBytes:            st.WireBytes,
		IndexCellMoves:       st.Index.CellMoves,
		IndexBoundRecomputes: st.Index.BoundRecomputes,
		IndexCellsVisited:    st.Index.CellsVisited,
		IndexRingExpansions:  st.Index.RingExpansions,
		IndexedQueries:       st.Index.IndexedQueries,
		IndexScanFallbacks:   st.Index.ScanFallbacks,
	}
}

// IngestHandler returns the POST /updates handler over any record sink
// (a single store's DeliverRecords or a cluster coordinator's routed
// delivery).
func IngestHandler(sink RecordSink) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "" && ct != wire.ContentType {
			http.Error(w, "want "+wire.ContentType, http.StatusUnsupportedMediaType)
			return
		}
		body := http.MaxBytesReader(w, r.Body, maxIngestBody)
		var resp wire.IngestResponse
		for {
			recs, err := wire.ReadFrame(body)
			if err == io.EOF {
				break
			}
			if err != nil {
				// Frames already ingested stay ingested (the store has no
				// transactions and the protocol is idempotent per Seq); the
				// client learns how far we got.
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp.Records += len(recs)
			applied, err := sink(recs)
			resp.Applied += applied
			resp.Errors += len(recs) - applied
			_ = err // per-record failures are reflected in the counts
		}
		WriteJSON(w, resp)
	}
}

type posJSON struct {
	ID   ObjectID `json:"id"`
	X    float64  `json:"x"`
	Y    float64  `json:"y"`
	Dist float64  `json:"dist,omitempty"`
}

func handlePosition(w http.ResponseWriter, r *http.Request, q Querier) {
	params := r.URL.Query()
	id := ObjectID(params.Get("id"))
	v, okT := queryFloats(params, "t")
	if id == "" || !okT {
		http.Error(w, "need id and t", http.StatusBadRequest)
		return
	}
	pos, ok := q.Position(id, v[0])
	if !ok {
		http.Error(w, "unknown object or no report", http.StatusNotFound)
		return
	}
	WriteJSON(w, posJSON{ID: id, X: pos.X, Y: pos.Y})
}

func handleNearest(w http.ResponseWriter, r *http.Request, q Querier) {
	params := r.URL.Query()
	v, ok := queryFloats(params, "x", "y", "t")
	k, err := strconv.Atoi(params.Get("k"))
	if !ok || err != nil || k <= 0 {
		http.Error(w, "need x, y, t and positive k", http.StatusBadRequest)
		return
	}
	writeHits(w, q.Nearest(geo.Pt(v[0], v[1]), k, v[2]))
}

// writeHits writes a hit list as JSON. Dist rides only where it is
// nonzero: a Within hit's is zero by construction.
func writeHits(w http.ResponseWriter, hits []ObjectPos) {
	out := make([]posJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, posJSON{ID: h.ID, X: h.Pos.X, Y: h.Pos.Y, Dist: h.Dist})
	}
	WriteJSON(w, out)
}

func handleWithin(w http.ResponseWriter, r *http.Request, q Querier) {
	v, ok := queryFloats(r.URL.Query(), "minx", "miny", "maxx", "maxy", "t")
	if !ok {
		http.Error(w, "need minx, miny, maxx, maxy, t", http.StatusBadRequest)
		return
	}
	writeHits(w, q.Within(geo.Rect{Min: geo.Pt(v[0], v[1]), Max: geo.Pt(v[2], v[3])}, v[4]))
}
