package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapmatch"
	"mapdr/internal/trace"
	"mapdr/internal/wire"
)

// Sizes of the stage measurements: enough work per stage for a stable
// mean, small enough that the whole ledger takes a few seconds.
const (
	stageVehicles = 100
	stageFrames   = 200
	stageQueries  = 600
	stageCodecOps = 20000
)

// stageCosts are the unit costs the ledger multiplies out to predict a
// handler's self time.
type stageCosts struct {
	frameEncode, frameDecode float64           // ns per record
	route, sendSelf, apply   float64           // ns per record
	qreq                     float64           // ns per request, encode + decode
	qrespPerHit, jsonPerHit  float64           // ns per hit
	scatterSelf, nodeQuery   [numKinds]float64 // ns per query
	withinHits               float64           // mean hits of a range query
}

// timeIt runs fn and returns the elapsed nanoseconds and heap
// allocations.
func timeIt(fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()), float64(after.Mallocs - before.Mallocs)
}

// cannedNode answers queries with whatever was last put in it. A
// coordinator over canned nodes spends time only in its own routing,
// scatter and merge code, which is how its self time is measured.
type cannedNode struct {
	pos  geo.Point
	seq  uint32
	ok   bool
	hits []locserv.ObjectPos
}

func (n *cannedNode) Register(locserv.ObjectID) error   { return nil }
func (n *cannedNode) Deregister(locserv.ObjectID) error { return nil }
func (n *cannedNode) Deliver(recs []wire.Record) (int, error) {
	return len(recs), nil
}
func (n *cannedNode) Position(locserv.ObjectID, float64) (geo.Point, uint32, bool, error) {
	return n.pos, n.seq, n.ok, nil
}
func (n *cannedNode) Nearest(geo.Point, int, float64) ([]locserv.ObjectPos, error) {
	return n.hits, nil
}
func (n *cannedNode) Within(geo.Rect, float64) ([]locserv.ObjectPos, error) { return n.hits, nil }
func (n *cannedNode) Export(uint64, uint64) ([]wire.Record, []locserv.ObjectID, error) {
	return nil, nil, nil
}
func (n *cannedNode) NodeStats() (locserv.NodeStats, error) { return locserv.NodeStats{}, nil }

// cannedQuerier feeds locserv.QueryAPIHandler a fixed answer, so the
// handler's time is request parsing and JSON encoding only.
type cannedQuerier struct{ hits []locserv.ObjectPos }

func (q cannedQuerier) Position(locserv.ObjectID, float64) (geo.Point, bool) {
	return geo.Point{}, false
}
func (q cannedQuerier) Nearest(geo.Point, int, float64) []locserv.ObjectPos { return q.hits }
func (q cannedQuerier) Within(geo.Rect, float64) []locserv.ObjectPos        { return q.hits }

func nodeNames() []string {
	names := make([]string, numNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// stageLedger times calls into each package's public functions on the
// seed's own inputs and records them as per-layer metrics.
func stageLedger(ctx context.Context, res *result, w *world, captured []timedRec, stream *lapStream, seed int64) (stageCosts, error) {
	var sc stageCosts
	if err := protocolStages(res, w, captured); err != nil {
		return sc, err
	}
	if err := ctx.Err(); err != nil {
		return sc, err
	}

	// One lap registers every object; the frames timed below continue
	// the stream from there.
	cur := &cursor{s: stream, seq: make([]uint32, len(stream.ids)), mod: 1}
	lap := cur.fill(nil, len(stream.recs), -1)
	frames := make([][]wire.Record, stageFrames)
	for i := range frames {
		frames[i] = cur.fill(nil, frameBatched, -1)
	}
	t := cur.now
	nrec := float64(stageFrames * frameBatched)

	// wire: the update frame codec.
	var enc [][]byte
	ns, _ := timeIt(func() {
		for _, f := range frames {
			enc = append(enc, wire.AppendFrame(nil, f))
		}
	})
	sc.frameEncode = ns / nrec
	res.set("wire.frame_encode_ns_per_rec", sc.frameEncode, int64(nrec))
	var bytes int
	var decodeErr error
	ns, allocs := timeIt(func() {
		for _, b := range enc {
			bytes += len(b)
			if _, _, err := wire.DecodeFrame(b); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return sc, decodeErr
	}
	sc.frameDecode = ns / nrec
	res.set("wire.frame_decode_ns_per_rec", sc.frameDecode, int64(nrec))
	res.set("wire.frame_decode_allocs_per_rec", allocs/nrec, int64(nrec))
	res.set("wire.bytes_per_rec", float64(bytes)/nrec, int64(nrec))

	// cluster: ring routing, then Send over members whose transport
	// drops the batch, which leaves the coordinator's own work.
	ring, err := cluster.NewRing(0, nodeNames()...)
	if err != nil {
		return sc, err
	}
	var owners []string
	ns, _ = timeIt(func() {
		for _, f := range frames {
			for i := range f {
				owners = ring.OwnersAppend(owners, f[i].ID, replicas)
			}
		}
	})
	sc.route = ns / nrec
	res.set("cluster.route_ns_per_rec", sc.route, int64(nrec))
	drop := wire.SinkFunc(func([]wire.Record) error { return nil })
	canned := make([]*cannedNode, numNodes)
	var dropMembers, cannedMembers []*cluster.Member
	for i, name := range nodeNames() {
		canned[i] = &cannedNode{}
		dropMembers = append(dropMembers, &cluster.Member{Name: name, Node: canned[i], Ingest: wire.NewLoopback(drop)})
		cannedMembers = append(cannedMembers, &cluster.Member{Name: name, Node: canned[i]})
	}
	dropCoord, err := cluster.NewReplicated(0, replicas, dropMembers...)
	if err != nil {
		return sc, err
	}
	var sendErr error
	ns, _ = timeIt(func() {
		for _, f := range frames {
			if err := dropCoord.Send(t, f); err != nil {
				sendErr = err
			}
		}
	})
	if sendErr != nil {
		return sc, sendErr
	}
	sc.sendSelf = ns / nrec
	res.set("cluster.send_self_ns_per_rec", sc.sendSelf, int64(nrec))

	// locserv ingest: one node applying whole frames.
	single := locserv.NewNodeService(locserv.New(), w.mapPredictor)
	if _, err := single.Deliver(lap); err != nil {
		return sc, err
	}
	var applyErr error
	ns, allocs = timeIt(func() {
		for _, f := range frames {
			if _, err := single.Deliver(f); err != nil {
				applyErr = err
			}
		}
	})
	if applyErr != nil {
		return sc, applyErr
	}
	sc.apply = ns / nrec
	res.set("locserv.apply_ns_per_rec", sc.apply, int64(nrec))
	res.set("locserv.apply_allocs_per_rec", allocs/nrec, int64(nrec))
	if err := ctx.Err(); err != nil {
		return sc, err
	}

	// A replicated in-process cluster holding what the frames above
	// carried: each node has the 2/3 of the objects a real node has.
	nodes := make([]*locserv.NodeService, numNodes)
	var members []*cluster.Member
	for i, name := range nodeNames() {
		nodes[i] = locserv.NewNodeService(locserv.New(), w.mapPredictor)
		members = append(members, cluster.NewLocalMember(name, nodes[i]))
	}
	coord, err := cluster.NewReplicated(0, replicas, members...)
	if err != nil {
		return sc, err
	}
	if err := coord.Send(t, lap); err != nil {
		return sc, err
	}
	for _, f := range frames {
		if err := coord.Send(t, f); err != nil {
			return sc, err
		}
	}

	// locserv queries on the nodes, keeping every node's answer so the
	// coordinator can be timed over canned copies of them.
	qs := genQueries(rand.New(rand.NewSource(seed^0x57a6e)), stageQueries, stream.ids, w.box)
	type parts struct {
		pos  [numNodes]geo.Point
		seq  [numNodes]uint32
		ok   [numNodes]bool
		hits [numNodes][]locserv.ObjectPos
	}
	answers := make([]parts, len(qs))
	var nodeNS, nodeAllocs, kindN [numKinds]float64
	for i, q := range qs {
		kindN[q.kind]++
		for n, node := range nodes {
			ns, allocs := timeIt(func() {
				a := &answers[i]
				switch q.kind {
				case kindPosition:
					a.pos[n], a.seq[n], a.ok[n], _ = node.Position(locserv.ObjectID(q.id), t)
				case kindNearest:
					a.hits[n], _ = node.Nearest(geo.Pt(q.x, q.y), nearestK, t)
				default:
					a.hits[n], _ = node.Within(q.rect(), t)
				}
			})
			nodeNS[q.kind] += ns
			nodeAllocs[q.kind] += allocs
		}
	}
	for k, name := range kindNames {
		calls := kindN[k] * numNodes
		sc.nodeQuery[k] = nodeNS[k] / calls
		res.set("locserv."+name+"_ns", sc.nodeQuery[k], int64(calls))
		if k != kindPosition {
			res.set("locserv."+name+"_allocs", nodeAllocs[k]/calls, int64(calls))
		}
	}

	// cluster scatter self time and the locserv merge, over the canned
	// answers.
	cannedCoord, err := cluster.NewReplicated(0, replicas, cannedMembers...)
	if err != nil {
		return sc, err
	}
	var scatterNS [numKinds]float64
	var mergeNS, mergeHits, withinHits float64
	var respHits []locserv.ObjectPos
	for i, q := range qs {
		a := &answers[i]
		var ps [][]locserv.ObjectPos
		for n, c := range canned {
			c.pos, c.seq, c.ok, c.hits = a.pos[n], a.seq[n], a.ok[n], a.hits[n]
			ps = append(ps, a.hits[n])
			mergeHits += float64(len(a.hits[n]))
		}
		var qerr error
		ns, _ := timeIt(func() {
			switch q.kind {
			case kindPosition:
				_, _, qerr = cannedCoord.PositionE(locserv.ObjectID(q.id), t)
			case kindNearest:
				_, qerr = cannedCoord.NearestE(geo.Pt(q.x, q.y), nearestK, t)
			default:
				_, qerr = cannedCoord.WithinE(q.rect(), t)
			}
		})
		if qerr != nil {
			return sc, qerr
		}
		scatterNS[q.kind] += ns
		if q.kind == kindPosition {
			continue
		}
		ns, _ = timeIt(func() {
			if q.kind == kindNearest {
				locserv.MergeNearest(ps, nearestK)
			} else {
				respHits, _ = locserv.MergeWithin(ps)
				withinHits += float64(len(respHits))
			}
		})
		mergeNS += ns
	}
	for k, name := range kindNames {
		sc.scatterSelf[k] = scatterNS[k] / kindN[k]
		res.set("cluster.scatter_self_us."+name, sc.scatterSelf[k]/1e3, int64(kindN[k]))
	}
	res.set("locserv.merge_ns_per_hit", ratio(mergeNS, mergeHits), int64(mergeHits))
	sc.withinHits = ratio(withinHits, kindN[kindWithin])
	if len(respHits) == 0 {
		return sc, fmt.Errorf("stage ledger: no range query returned a hit")
	}

	// wire: the query codec, on a nearest request and a range answer.
	req := wire.QueryRequest{Op: wire.OpNearest, X: 1234.5, Y: 6789.25, K: nearestK, T: t}
	var buf []byte
	var codecErr error
	ns, _ = timeIt(func() {
		for i := 0; i < stageCodecOps; i++ {
			buf = wire.AppendQueryRequest(buf[:0], req)
			if _, _, err := wire.DecodeQueryRequest(buf); err != nil {
				codecErr = err
			}
		}
	})
	sc.qreq = ns / stageCodecOps
	res.set("wire.qreq_codec_ns", sc.qreq, stageCodecOps)
	resp := wire.QueryResponse{Op: wire.OpWithin}
	for _, h := range respHits {
		resp.Hits = append(resp.Hits, wire.QueryHit{ID: string(h.ID), X: h.Pos.X, Y: h.Pos.Y, Seq: uint64(h.Seq)})
	}
	rounds := stageCodecOps / len(resp.Hits)
	ns, _ = timeIt(func() {
		for i := 0; i < rounds; i++ {
			buf = wire.AppendQueryResponse(buf[:0], resp)
			if _, _, err := wire.DecodeQueryResponse(buf); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return sc, codecErr
	}
	sc.qrespPerHit = ns / float64(rounds*len(resp.Hits))
	res.set("wire.qresp_codec_ns_per_hit", sc.qrespPerHit, int64(rounds*len(resp.Hits)))

	// locserv: the JSON query API over a fixed answer.
	api := locserv.QueryAPIHandler(cannedQuerier{respHits})
	r := httptest.NewRequest("GET", query{kind: kindWithin}.path(t), nil)
	ns, _ = timeIt(func() {
		for i := 0; i < rounds; i++ {
			api.ServeHTTP(httptest.NewRecorder(), r)
		}
	})
	sc.jsonPerHit = ns / float64(rounds*len(respHits))
	res.set("locserv.json_ns_per_hit", sc.jsonPerHit, int64(rounds*len(respHits)))
	return sc, nil
}

// protocolStages times the source, the map matcher and the server
// replica on the first stageVehicles traces.
func protocolStages(res *result, w *world, captured []timedRec) error {
	byVehicle := make(map[string][]timedRec)
	for _, c := range captured {
		byVehicle[c.rec.ID] = append(byVehicle[c.rec.ID], c)
	}
	var sourceNS, feedNS, predictNS, samples float64
	for _, o := range w.fleet[:min(stageVehicles, len(w.fleet))] {
		tr := o.Truth
		samples += float64(tr.Len())

		src, err := core.NewMapSource(sourceCfg, core.NewMapPredictor(w.g))
		if err != nil {
			return err
		}
		ns, _ := timeIt(func() {
			for _, s := range tr.Samples {
				src.OnSample(s)
			}
		})
		sourceNS += ns

		// The matcher as NewMapSource configures it, fed the headings the
		// source's estimator produces.
		est := trace.NewEstimator(sourceCfg.Sightings)
		headings := make([]float64, tr.Len())
		for i, s := range tr.Samples {
			_, h, ok := est.Add(s)
			if !ok {
				h = math.NaN()
			}
			headings[i] = h
		}
		m := mapmatch.New(w.g, mapmatch.DefaultConfig())
		ns, _ = timeIt(func() {
			for i, s := range tr.Samples {
				m.Feed(s.T, s.Pos, headings[i])
			}
		})
		feedNS += ns

		// The server replica answering one position per sample between
		// the updates the source sent.
		sv := core.NewServer(core.NewMapPredictor(w.g))
		ups := byVehicle[string(o.ID)]
		ns, _ = timeIt(func() {
			for _, s := range tr.Samples {
				for len(ups) > 0 && ups[0].at <= s.T {
					sv.Apply(ups[0].rec.Update)
					ups = ups[1:]
				}
				sv.Position(s.T)
			}
		})
		predictNS += ns
	}
	res.set("core.source_ns_per_sample", sourceNS/samples, int64(samples))
	res.set("mapmatch.feed_ns_per_sample", feedNS/samples, int64(samples))
	res.set("core.predict_ns_per_position", predictNS/samples, int64(samples))
	return nil
}
