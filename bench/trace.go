package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only by the harness, around the existing interfaces: the client's
// operation and its HTTP round trip, the coordinator's handler, its
// per-member round trips and the nodes' handlers.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	// SelfNS is the span's duration minus the part of it its children
	// cover (their union, so parallel children count once).
	SelfNS float64 `json:"self_ns"`
	// ExclNS is the span's exclusive share of its root's duration: each
	// instant belongs to the deepest span in flight, split evenly when
	// parallel siblings are. Exclusive times under a root add up to the
	// root's duration.
	ExclNS float64 `json:"excl_ns"`
}

const spanHeader = "X-Bench-Span"

// tracer collects spans in memory. The traced run keeps one request in
// flight, so "the operation in flight" and "the coordinator span in
// flight" are single values and spans nest by time.
type tracer struct {
	on       atomic.Bool
	epoch    time.Time
	nextID   atomic.Int64
	clientOp atomic.Int64 // the client.op span in flight
	coordOp  atomic.Int64 // the coord.handle span in flight
	op       atomic.Value // string: the operation kind in flight

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.op.Store("")
	return t
}

// start opens a span and returns its id and the function that closes
// it; with tracing off both are zero-cost no-ops (id 0).
func (t *tracer) start(name string, parent int64) (int64, func()) {
	if !t.on.Load() {
		return 0, func() {}
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name, Op: t.op.Load().(string), Start: int64(time.Since(t.epoch))}
	return s.ID, func() {
		s.End = int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// spanTransport records one span per HTTP round trip, from the request
// leaving to the response body being closed, and tells the server side
// which span it is a child of.
type spanTransport struct {
	t      *tracer
	name   string
	parent *atomic.Int64
	base   http.RoundTripper
}

func (s *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, done := s.t.start(s.name, s.parent.Load())
	if id == 0 {
		return s.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handler wraps h in a span whose parent is the round trip that
// carried the request; inFlight, when set, publishes the span to the
// round trips h makes.
func (t *tracer) handler(name string, h http.Handler, inFlight *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent: untraced, 0
		id, done := t.start(name, parent)
		if inFlight != nil {
			inFlight.Store(id)
		}
		h.ServeHTTP(w, r)
		done()
	})
}

// interval is a half-open stretch of trace time.
type interval struct{ lo, hi int64 }

// unionLen is the total length the intervals cover.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64 = 0, math.MinInt64
	for _, iv := range ivs {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			total += iv.hi - iv.lo
		} else {
			total += iv.hi - end
		}
		end = iv.hi
	}
	return total
}

// analyse fills SelfNS and ExclNS of every span and returns the roots'
// indexes with, per root, the indexes of the spans beneath it (itself
// included). A child reaching outside its parent (the server finishing
// its handler after the client saw the last byte) is clipped to it.
func analyse(spans []span) map[int][]int {
	index := make(map[int64]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	children := make(map[int][]int)
	var roots []int
	for i := range spans {
		if p, ok := index[spans[i].Parent]; ok && spans[i].Parent != 0 {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	trees := make(map[int][]int, len(roots))
	clip := make([]interval, len(spans))
	var walk func(root, i int, within interval)
	walk = func(root, i int, within interval) {
		iv := interval{max(spans[i].Start, within.lo), min(spans[i].End, within.hi)}
		if iv.hi < iv.lo {
			iv.hi = iv.lo
		}
		clip[i] = iv
		trees[root] = append(trees[root], i)
		var kids []interval
		for _, c := range children[i] {
			walk(root, c, iv)
			kids = append(kids, clip[c])
		}
		spans[i].SelfNS = float64(iv.hi - iv.lo - unionLen(kids))
	}
	for _, r := range roots {
		walk(r, r, interval{spans[r].Start, spans[r].End})
		tree := trees[r]
		// Sweep the tree's elementary intervals; in each, the spans in
		// flight that have no child in flight share it.
		var cuts []int64
		for _, i := range tree {
			cuts = append(cuts, clip[i].lo, clip[i].hi)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for k := 1; k < len(cuts); k++ {
			lo, hi := cuts[k-1], cuts[k]
			if hi == lo {
				continue
			}
			active := func(i int) bool { return clip[i].lo <= lo && hi <= clip[i].hi }
			var deepest []int
			for _, i := range tree {
				if !active(i) {
					continue
				}
				leaf := true
				for _, c := range children[i] {
					leaf = leaf && !active(c)
				}
				if leaf {
					deepest = append(deepest, i)
				}
			}
			for _, i := range deepest {
				spans[i].ExclNS += float64(hi-lo) / float64(len(deepest))
			}
		}
	}
	return trees
}

// opLedger is the traced run's per-operation-kind table: mean times
// per request, microseconds.
type opLedger struct {
	requests  int
	excl      map[string]float64 // by span name: exclusive share
	coordSelf float64            // coord.handle self time
	nodeSelf  float64            // node.handle self time, summed over nodes
}

// ledgers groups analysed spans by operation kind and checks that each
// root's duration equals the exclusive times beneath it.
func ledgers(spans []span, trees map[int][]int) (map[string]*opLedger, error) {
	out := make(map[string]*opLedger)
	for r, tree := range trees {
		root := spans[r]
		if root.Name != "client.op" {
			continue // background traffic outside any operation
		}
		l := out[root.Op]
		if l == nil {
			l = &opLedger{excl: make(map[string]float64)}
			out[root.Op] = l
		}
		l.requests++
		var sum float64
		for _, i := range tree {
			s := spans[i]
			sum += s.ExclNS
			l.excl[s.Name] += s.ExclNS / 1e3
			switch s.Name {
			case "coord.handle":
				l.coordSelf += s.SelfNS / 1e3
			case "node.handle":
				l.nodeSelf += s.SelfNS / 1e3
			}
		}
		if dur := float64(root.End - root.Start); math.Abs(sum-dur) > 1e-6*dur+1 {
			return nil, fmt.Errorf("trace: root span %d lasts %.0f ns but the exclusive times beneath it sum to %.0f ns", root.ID, dur, sum)
		}
	}
	for _, l := range out {
		n := float64(l.requests)
		for name := range l.excl {
			l.excl[name] /= n
		}
		l.coordSelf /= n
		l.nodeSelf /= n
	}
	return out, nil
}

// expectedHandlerUS multiplies the stage costs out to what the
// coordinator's and the nodes' handlers should spend on one operation
// of the given kind, in microseconds. What the handlers' measured self
// time exceeds this by is HTTP framing, scheduling and anything the
// ledger has no stage for.
func expectedHandlerUS(op string, sc stageCosts) float64 {
	update := func(records float64) float64 {
		coord := records * (sc.frameDecode + sc.sendSelf + replicas*sc.frameEncode)
		nodes := replicas * records * (sc.frameDecode + sc.apply)
		return coord + nodes
	}
	scatter := func(kind int, calls, hitsOut, hitsIn float64) float64 {
		coord := sc.scatterSelf[kind] + hitsOut*sc.jsonPerHit
		nodes := calls*(sc.qreq+sc.nodeQuery[kind]) + hitsIn*sc.qrespPerHit
		return coord + nodes
	}
	var ns float64
	switch op {
	case "update512":
		ns = update(frameBatched)
	case "update8":
		ns = update(frameSmall)
	case "position":
		ns = scatter(kindPosition, replicas, 1, replicas)
	case "nearest":
		ns = scatter(kindNearest, numNodes, nearestK, numNodes*nearestK)
	case "within":
		ns = scatter(kindWithin, numNodes, sc.withinHits, replicas*sc.withinHits)
	}
	return ns / 1e3
}

// tracedOps is the operation mix the traced run replays for a
// workload, as a repeating pattern of kinds; "query" draws the next
// query of the 50/25/25 mix.
var tracedOps = map[string][]string{
	"ingest_batched": {"update512"},
	"query_static":   {"query"},
	// 400 frames to 250 queries, as offered in the hi step.
	"mixed_open": {"update8", "query", "update8", "query", "update8", "update8", "query", "update8", "query", "update8", "query", "update8", "update8"},
}

// tracedRun replays the workload's operations against the same code
// assembled in process from public constructors with real loopback
// sockets, one request in flight, recording spans; it then sets the
// span-derived per-layer metrics and writes the spans to
// bench/out/trace-<workload>.json.
func tracedRun(ctx context.Context, e *socketEnv) error {
	sc, err := stageLedger(ctx, e.res, e.w, e.captured, e.stream, e.cfg.seed)
	if err != nil {
		return err
	}
	tr := newTracer()
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	var members []*cluster.Member
	for _, name := range nodeNames() {
		node := locserv.NewNodeService(locserv.New(), e.w.mapPredictor)
		srv := httptest.NewServer(tr.handler("node.handle", node.Handler(), nil))
		servers = append(servers, srv)
		hc := &http.Client{Transport: &spanTransport{t: tr, name: "member.rtt", parent: &tr.coordOp, base: &http.Transport{}}}
		members = append(members, cluster.NewHTTPMember(name, srv.URL, hc))
	}
	coord, err := cluster.NewReplicated(0, replicas, members...)
	if err != nil {
		return err
	}
	front := httptest.NewServer(tr.handler("coord.handle", cluster.Handler(coord), &tr.coordOp))
	servers = append(servers, front)
	c := newConn(front.URL)
	c.hc.Transport = &spanTransport{t: tr, name: "client.rtt", parent: &tr.clientOp, base: c.hc.Transport}
	defer c.hc.CloseIdleConnections()

	// One lap registers every object.
	cur := &cursor{s: e.stream, seq: make([]uint32, len(e.stream.ids)), mod: 1}
	var buf []wire.Record
	for limit := int64(len(e.stream.recs)); ; {
		if buf = cur.fill(buf[:0], frameBatched, limit); len(buf) == 0 {
			break
		}
		if err := c.send(buf); err != nil {
			return fmt.Errorf("traced preload: %w", err)
		}
	}

	qs := genQueries(rand.New(rand.NewSource(e.cfg.seed^0x7ace)), queryPool, e.stream.ids, e.w.box)
	pattern := tracedOps[e.cfg.workload]
	var nOps, nQueries int
	// phase replays the pattern until the deadline, adding each
	// operation's latency to lat under its kind.
	phase := func(span time.Duration, lat map[string]*latencies) error {
		for until := time.Now().Add(span); time.Now().Before(until); nOps++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			op := pattern[nOps%len(pattern)]
			var q query
			if op == "query" {
				q = qs[nQueries%len(qs)]
				nQueries++
				op = kindNames[q.kind]
			}
			tr.op.Store(op)
			start := time.Now()
			id, done := tr.start("client.op", 0)
			tr.clientOp.Store(id)
			var err error
			switch op {
			case "update512":
				buf = cur.fill(buf[:0], frameBatched, -1)
				err = c.send(buf)
			case "update8":
				buf = cur.fill(buf[:0], frameSmall, -1)
				err = c.send(buf)
			default:
				_, err = c.get(q.path(cur.now))
			}
			done()
			if err != nil {
				return fmt.Errorf("traced %s: %w", op, err)
			}
			if lat[op] == nil {
				lat[op] = &latencies{}
			}
			lat[op].add(time.Since(start), 0)
		}
		return nil
	}
	// Alternate short traced and untraced phases so both see the same
	// machine state. Tracing's cost is the relative difference of the
	// two median latencies, per kind (the kinds' medians are far apart,
	// so a pooled median would sit between two modes), averaged over the
	// operations.
	traced, untraced := map[string]*latencies{}, map[string]*latencies{}
	const phases = 4
	for i := 0; i < 2*phases; i++ {
		tr.on.Store(i%2 == 0)
		lat := untraced
		if i%2 == 0 {
			lat = traced
		}
		if err := phase(e.window()/(4*phases), lat); err != nil {
			return err
		}
	}
	tr.on.Store(false)
	var overhead, weight float64
	for op, on := range traced {
		if off := untraced[op]; off != nil {
			n := float64(on.len())
			overhead += n * ratio(on.pooled(0.5)-off.pooled(0.5), off.pooled(0.5))
			weight += n
		}
	}
	e.res.set("trace.overhead_share", ratio(overhead, weight), int64(weight))

	trees := analyse(tr.spans)
	byOp, err := ledgers(tr.spans, trees)
	if err != nil {
		return err
	}
	rows := map[string]string{
		"net.client_coord_us":  "client.rtt",
		"net.coord_node_us":    "member.rtt",
		"trace.coord_self_us":  "coord.handle",
		"trace.node_self_us":   "node.handle",
		"trace.client_self_us": "client.op",
	}
	for op, l := range byOp {
		for row, name := range rows {
			e.res.set(row+"."+op, l.excl[name], int64(l.requests))
		}
		e.res.set("ledger.unattributed_share."+op, 1-ratio(expectedHandlerUS(op, sc), l.coordSelf+l.nodeSelf), int64(l.requests))
	}
	return writeSpans(e.cfg.workload, tr.spans)
}

func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
