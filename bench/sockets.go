package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mapdr/internal/wire"
)

// conn is one of the load generator's two connections: HTTP/1.1
// keep-alive, one request in flight, through the public clients.
type conn struct {
	base   string
	hc     *http.Client
	ingest *wire.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return &conn{base: base, hc: hc, ingest: wire.NewClient(base, hc)}
}

// get issues one query; the returned body is valid until the next get.
func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return c.buf.Bytes(), nil
}

// send posts one frame and reports whether every record was applied.
func (c *conn) send(batch []wire.Record) error {
	applied, err := c.ingest.SendCounted(0, batch)
	if err != nil {
		return err
	}
	if applied != len(batch) {
		return fmt.Errorf("frame of %d records acked applied=%d", len(batch), applied)
	}
	return nil
}

// socketEnv is the state the three socket workloads share: generated
// inputs, the forked cluster preloaded with two laps of the stream,
// the generator's two connections and the correctness oracle.
type socketEnv struct {
	cfg    config
	res    *result
	w      *world
	stream *lapStream
	cl     *procCluster
	conns  [2]*conn
	cur    []*cursor // the cursors the cluster has been fed from
	oracle *oracle

	captured []timedRec // the seed's raw update stream, for the stage ledger
}

// setupSockets builds locserver (timed apart as gen.build_s), then
// times everything a user waits for before the first measured request:
// input generation, process boot and the two-lap preload that
// registers every object and warms the connections.
func setupSockets(ctx context.Context, procs *procGroup, cfg config) (*socketEnv, error) {
	e := &socketEnv{cfg: cfg, res: newResult(cfg.workload)}
	bin, buildDur, err := buildServer(ctx)
	if err != nil {
		return nil, err
	}
	e.res.set("gen.build_s", buildDur.Seconds(), 1)

	start := time.Now()
	if e.w, err = genWorld(cfg.seed, fleetN); err != nil {
		return nil, err
	}
	var pc protocolCounts
	if e.captured, pc, err = e.w.capture(); err != nil {
		return nil, err
	}
	setProtocol(e.res, e.w, pc)
	e.stream = e.w.buildStream(e.captured)
	seq := make([]uint32, len(e.stream.ids)) // shared: the cursors own disjoint objects
	e.oracle = newOracle(e.w)
	if e.cl, err = procs.startCluster(bin); err != nil {
		return nil, err
	}
	for i := range e.conns {
		e.conns[i] = newConn(e.cl.coord.url)
		e.cur = append(e.cur, &cursor{s: e.stream, seq: seq, mod: int32(len(e.conns)), rem: int32(i)})
	}
	if err := e.preload(ctx); err != nil {
		return nil, err
	}
	e.res.set("setup_s", time.Since(start).Seconds(), 1)
	return e, nil
}

// preload ingests exactly two laps over both connections.
func (e *socketEnv) preload(ctx context.Context) error {
	limit := 2 * int64(len(e.stream.recs))
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []wire.Record
			for ctx.Err() == nil {
				if buf = e.cur[i].fill(buf[:0], frameBatched, limit); len(buf) == 0 {
					return
				}
				if errs[i] = e.conns[i].send(buf); errs[i] != nil {
					return
				}
			}
			errs[i] = ctx.Err()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// streamTime is the stream time every connection has acked up to.
func (e *socketEnv) streamTime() float64 {
	t := e.cur[0].now
	for _, c := range e.cur[1:] {
		t = max(t, c.now)
	}
	return t
}

// probe is the servers' and the generator's resource use at one
// instant, plus the servers' own counters.
type probe struct {
	coord, nodes procUsage
	self         time.Duration
	sc           scrape
}

func (e *socketEnv) probe() (probe, error) {
	var p probe
	var err error
	if err = e.cl.checkAlive(); err != nil {
		return p, err
	}
	if p.sc, err = e.cl.scrape(); err != nil {
		return p, err
	}
	if p.coord, err = usage(e.cl.coord); err != nil {
		return p, err
	}
	if p.nodes, err = usage(e.cl.nodes...); err != nil {
		return p, err
	}
	p.self = selfCPU()
	return p, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// account turns two probes around a measured window of ops operations
// into the server-cost metric, the per-layer resource and counter
// metrics, and the must-stay-zero assertions.
func (e *socketEnv) account(b, a probe, ops int64) {
	res, n := e.res, float64(ops)
	coordCPU := float64((a.coord.cpu - b.coord.cpu).Microseconds())
	nodeCPU := float64((a.nodes.cpu - b.nodes.cpu).Microseconds())
	genCPU := float64((a.self - b.self).Microseconds())
	res.set("server_cpu_us_per_op", (coordCPU+nodeCPU)/n, ops)
	res.set("proc.coord_cpu_us_per_op", coordCPU/n, ops)
	res.set("proc.node_cpu_us_per_op", nodeCPU/n, ops)
	res.set("proc.coord_rss_mb", a.coord.rssMB, 1)
	res.set("proc.node_rss_mb", a.nodes.rssMB, numNodes)
	res.set("proc.ctxsw_per_op", float64(a.coord.ctxsw+a.nodes.ctxsw-b.coord.ctxsw-b.nodes.ctxsw)/n, ops)
	res.set("gen.cpu_share", ratio(genCPU, genCPU+coordCPU+nodeCPU), 1)

	d := func(name string) float64 { return a.sc.delta(b.sc, name) }
	for _, kind := range kindNames {
		res.set("locserv.node_"+kind+"_mean_us", a.sc.meanUS(b.sc, "mapdr_node_query_"+kind+"_seconds"),
			int64(d("mapdr_node_query_"+kind+"_seconds_count")))
		res.set("cluster.coord_"+kind+"_mean_us", a.sc.meanUS(b.sc, "mapdr_coord_query_"+kind+"_seconds"),
			int64(d("mapdr_coord_query_"+kind+"_seconds_count")))
	}
	res.set("locserv.node_ingest_batch_mean_us", a.sc.meanUS(b.sc, "mapdr_node_ingest_batch_seconds"),
		int64(d("mapdr_node_ingest_batch_seconds_count")))
	applied := d("mapdr_node_updates_applied_total")
	res.set("spatial.cell_moves_per_kupd", 1000*ratio(d("mapdr_node_index_cell_moves_total"), applied), int64(applied))
	res.set("spatial.bound_recomputes_per_kupd", 1000*ratio(d("mapdr_node_index_bound_recomputes_total"), applied), int64(applied))
	indexed := d("mapdr_node_index_indexed_queries_total")
	res.set("spatial.cells_visited_per_query", ratio(d("mapdr_node_index_cells_visited_total"), indexed), int64(indexed))
	nearest := d("mapdr_node_query_nearest_seconds_count")
	res.set("spatial.ring_expansions_per_nearest", ratio(d("mapdr_node_index_ring_expansions_total"), nearest), int64(nearest))
	res.set("cluster.read_repairs", d("mapdr_coord_read_repairs_total"), 1)

	var retries, errors int64
	for _, c := range e.conns {
		st := c.ingest.Stats()
		retries += st.Retries
		errors += st.Errors
	}
	res.set("wire.client_retries", float64(retries), 1)
	for _, zero := range []struct {
		name string
		v    float64
	}{
		{"spatial.scan_fallbacks", d("mapdr_node_index_scan_fallbacks_total")},
		{"cluster.hinted", a.sc.hinted - b.sc.hinted},
		{"cluster.degraded_queries", d("mapdr_coord_degraded_queries_total")},
		{"cluster.query_errors", d("mapdr_coord_query_errors_total")},
		{"wire.client_errors", float64(errors)},
	} {
		res.set(zero.name, zero.v, 1)
		if zero.v != 0 {
			res.problem("%s = %v, must be 0", zero.name, zero.v)
		}
	}
	// The bypass predictions: a writes-only window leaves the query path
	// idle and a reads-only window leaves ingest idle.
	if e.cfg.workload == "ingest_batched" && indexed != 0 {
		res.problem("ingest_batched ran %v index queries on the nodes; the query path must stay idle", indexed)
	}
	if e.cfg.workload == "query_static" && applied != 0 {
		res.problem("query_static applied %v updates on the nodes; ingest must stay idle", applied)
	}
}

// window returns the measured window's length; the traced invocation
// splits its time between the multi-process window and the traced
// in-process run.
func (e *socketEnv) window() time.Duration {
	s := e.cfg.seconds
	if e.cfg.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// answer is a recorded query answer awaiting the oracle.
type answer struct {
	q    query
	t    float64
	body []byte
}

// verify checks the quiesced cluster against the oracle: the oracle is
// fed the tail of the stream every connection sent, then freshly drawn
// position, nearest and within queries at the final stream time, plus
// the answers recorded during the window (only a workload whose store
// stood still records any), must match it exactly.
func (e *socketEnv) verify(recorded []answer) error {
	for _, c := range e.cur {
		if err := e.oracle.feed(c.tail()); err != nil {
			return err
		}
	}
	t := e.streamTime()
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x5eed))
	counts := [numKinds]int{verifyIDs, verifyQueries, verifyQueries}
	for _, q := range genQueries(rng, 8*verifyIDs, e.stream.ids, e.w.box) {
		if counts[q.kind] == 0 {
			continue
		}
		counts[q.kind]--
		body, err := e.conns[0].get(q.path(t))
		if err != nil {
			return err
		}
		recorded = append(recorded, answer{q, t, append([]byte(nil), body...)})
	}
	var bad int64
	for _, a := range recorded {
		if err := e.oracle.check(a.q, a.t, a.body); err != nil {
			if bad++; bad <= 3 {
				e.res.problem("wrong answer: %v", err)
			}
		}
	}
	e.res.count(int64(len(recorded)), bad)
	return nil
}

// finish closes a socket workload: liveness, the oracle, failed_share.
func (e *socketEnv) finish(ctx context.Context, recorded []answer) (*result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.verify(recorded); err != nil {
		return nil, err
	}
	if err := e.cl.checkAlive(); err != nil {
		return nil, err
	}
	e.res.set("failed_share", ratio(float64(e.res.failed), float64(e.res.attempted)), e.res.attempted)
	if e.cfg.traced {
		if err := tracedRun(ctx, e); err != nil {
			return nil, err
		}
	}
	for _, c := range e.conns {
		c.hc.CloseIdleConnections()
	}
	return e.res, nil
}
