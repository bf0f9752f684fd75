package locserv

import (
	"encoding/json"
	"math"
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
// cluster coordinator. The records are valid only during the call: the
// handler decodes every frame of a request into one reused slice, so a
// sink copies whatever records it keeps, and clones (strings.Clone) any
// id it keeps, which would otherwise pin the string all its frame's ids
// share.
type RecordSink func(recs []wire.Record) (applied int, err error)

// Handler is a store's one HTTP server, standalone or a cluster node:
//
//	GET  /healthz                           -> {"ok":true,"objects":n}
//	GET  /objects                           -> ["id", ...]
//	GET  /position?id=car1&t=120            -> {"id":"car1","x":..,"y":..}
//	GET  /nearest?x=0&y=0&k=3&t=120         -> [{"id":..,"x":..,"y":..,"dist":..}]
//	GET  /within?minx=&miny=&maxx=&maxy=&t= -> [{"id":..,"x":..,"y":..}]
//	GET  /metrics, /stats, /trace           -> see RouteObsAPI
//	POST /updates  (application/x-mapdr-frame)
//	GET  /member   (Upgrade: mapdr-member/2)
//
// POST /updates feeds wire frames to Deliver, so the factory decides
// whether unknown objects register on the fly (nil: rejected). GET
// /member is the member stream a coordinator speaks: query and update
// bodies, one per frame, multiplexed (wire.StreamHandler).
func (n *NodeService) Handler() http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, n.s)
	RouteObsAPI(mux, n, n.s.ring)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, map[string]any{"ok": true, "objects": n.s.Len()})
	})
	mux.HandleFunc("GET /objects", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, n.s.Objects())
	})
	mux.HandleFunc("POST /updates", IngestHandler(n.Deliver))
	mux.Handle("GET "+wire.StreamPath, wire.StreamHandler(n.StreamServer()))
	return mux
}

// StreamServer is what the node serves on its member stream, over a
// socket (Handler) or in process (wire.NewStreamLoopback): query frames
// and update frames.
func (n *NodeService) StreamServer() wire.StreamServer {
	return wire.StreamServer{
		Query:   func(req wire.QueryRequest) wire.QueryResponse { return ServeQuery(n, req) },
		Deliver: n.Deliver,
	}
}

// QueryAPIHandler serves the JSON query API (RouteQueryAPI) over any
// Querier, plus a GET /healthz that reports liveness only.
func QueryAPIHandler(q Querier) http.Handler {
	mux := http.NewServeMux()
	RouteQueryAPI(mux, q)
	mux.HandleFunc("GET /healthz", HandleLive)
	return mux
}

// HandleLive answers a liveness probe with {"ok":true}: it must stay
// cheap, so it never fans out to remote members the way /stats does.
func HandleLive(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, map[string]any{"ok": true})
}

// RouteQueryAPI mounts the three query families on mux: GET /position,
// /nearest and /within. Every numeric parameter must be finite.
func RouteQueryAPI(mux *http.ServeMux, q Querier) {
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

// RouteObsAPI mounts the observability endpoints on mux:
//
//	GET /metrics -> the metrics snapshot, Prometheus text exposition
//	GET /stats   -> NodeStatsOf that same snapshot, as JSON
//	GET /trace   -> the traced queries retained in ring
//
// A failed member scrape degrades to whatever assembled; the answer
// stays valid.
func RouteObsAPI(mux *http.ServeMux, src ObsSnapshotter, ring *obs.TraceRing) {
	snapshot := func() obs.Snapshot {
		snap, _ := src.ObsSnapshot()
		return snap
	}
	mux.Handle("GET /metrics", obs.MetricsHandler(snapshot))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, NodeStatsOf(snapshot()))
	})
	mux.Handle("GET /trace", obs.TraceHandler(ring))
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
// whether every one is present and a finite number.
func queryFloats(q url.Values, keys ...string) ([]float64, bool) {
	vals := make([]float64, len(keys))
	for i, key := range keys {
		v, err := strconv.ParseFloat(q.Get(key), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
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
		err := wire.ReadFrames(body, func(recs []wire.Record) {
			resp.Records += len(recs)
			applied, _ := sink(recs) // per-record failures are reflected in the counts
			resp.Applied += applied
			resp.Errors += len(recs) - applied
		})
		if err != nil {
			// Frames already ingested stay ingested (the store has no
			// transactions and the protocol is idempotent per Seq), but
			// the answer is a 400 carrying only the error text: the
			// client is not told how many frames landed.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
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
