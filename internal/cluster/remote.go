package cluster

import (
	"errors"
	"fmt"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// RemoteNode implements locserv.Node over a node's member stream: every
// call becomes one request/answer frame exchange on the wire.Stream —
// over a socket or in process — query and admin calls as query frames,
// NodeStats and ObsSnapshot sharing the one OpMetrics exchange, Deliver
// as the update path's chunked update frames.
type RemoteNode struct {
	s *wire.Stream
	// trace and spans are zero except on the per-call view bindTrace
	// returns: call stamps the id on every request and appends every
	// response's spans.
	trace uint64
	spans *[]wire.Span
}

// NewRemoteNode returns the node at the other end of s.
func NewRemoteNode(s *wire.Stream) *RemoteNode {
	return &RemoteNode{s: s}
}

// bindTrace returns a shallow copy of the node whose exchanges carry the
// trace id and append the spans they observe (encode, rtt, decode, node
// query) to *spans. Every exchange of a bound call contributes its
// spans, so a paged Within returns one set per page. The view serves one
// traced member call on one goroutine.
func (r *RemoteNode) bindTrace(trace uint64, spans *[]wire.Span) *RemoteNode {
	bound := *r
	bound.trace, bound.spans = trace, spans
	return &bound
}

// call runs one request/response exchange, converting in-band error
// responses to errors.
func (r *RemoteNode) call(req wire.QueryRequest) (wire.QueryResponse, error) {
	req.Trace = r.trace
	resp, err := r.s.Query(req)
	if err != nil {
		return wire.QueryResponse{}, err
	}
	if r.spans != nil {
		*r.spans = append(*r.spans, resp.Spans...)
	}
	if resp.Err != "" {
		return wire.QueryResponse{}, errors.New(resp.Err)
	}
	if resp.Op != req.Op {
		return wire.QueryResponse{}, fmt.Errorf("cluster: response op %v for request %v", resp.Op, req.Op)
	}
	return resp, nil
}

// Register implements locserv.Node; the remote node's predictor
// factory mints the predictor.
func (r *RemoteNode) Register(id locserv.ObjectID) error {
	_, err := r.call(wire.QueryRequest{Op: wire.OpRegister, ID: string(id)})
	return err
}

// Deregister implements locserv.Node.
func (r *RemoteNode) Deregister(id locserv.ObjectID) error {
	_, err := r.call(wire.QueryRequest{Op: wire.OpDeregister, ID: string(id)})
	return err
}

// Deliver implements locserv.Node over the update frames, returning the
// node's applied count.
func (r *RemoteNode) Deliver(recs []wire.Record) (int, error) {
	return r.s.SendCounted(0, recs)
}

// Position implements locserv.Node.
func (r *RemoteNode) Position(id locserv.ObjectID, t float64) (geo.Point, uint32, bool, error) {
	resp, err := r.call(wire.QueryRequest{Op: wire.OpPosition, ID: string(id), T: t})
	if err != nil {
		return geo.Point{}, 0, false, err
	}
	if !resp.Found || len(resp.Hits) != 1 {
		return geo.Point{}, 0, false, nil
	}
	return geo.Pt(resp.Hits[0].X, resp.Hits[0].Y), uint32(resp.Hits[0].Seq), true, nil
}

// Nearest implements locserv.Node.
func (r *RemoteNode) Nearest(p geo.Point, k int, t float64) ([]locserv.ObjectPos, error) {
	resp, err := r.call(wire.QueryRequest{Op: wire.OpNearest, X: p.X, Y: p.Y, K: k, T: t})
	if err != nil {
		return nil, err
	}
	return locserv.FromWireHits(resp.Hits), nil
}

// Within implements locserv.Node, following the server's paging
// cursor: an answer too large for one response frame arrives as
// multiple pages keyed by the last object id of each, and the
// concatenation is exactly the unpaged answer (pages are cut from one
// id-sorted result).
func (r *RemoteNode) Within(rect geo.Rect, t float64) ([]locserv.ObjectPos, error) {
	var out []locserv.ObjectPos
	after := ""
	for {
		resp, err := r.call(wire.QueryRequest{
			Op:   wire.OpWithin,
			MinX: rect.Min.X, MinY: rect.Min.Y,
			MaxX: rect.Max.X, MaxY: rect.Max.Y,
			T: t, After: after,
		})
		if err != nil {
			return nil, err
		}
		out = locserv.AppendWireHits(out, resp.Hits)
		if resp.Next == "" {
			return out, nil
		}
		if resp.Next <= after {
			return nil, fmt.Errorf("cluster: within page cursor did not advance (%q -> %q)", after, resp.Next)
		}
		after = resp.Next
	}
}

// Export implements locserv.Node.
func (r *RemoteNode) Export(lo, hi uint64) ([]wire.Record, []locserv.ObjectID, error) {
	resp, err := r.call(wire.QueryRequest{Op: wire.OpExport, Lo: lo, Hi: hi})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]locserv.ObjectID, len(resp.IDs))
	for i, id := range resp.IDs {
		ids[i] = locserv.ObjectID(id)
	}
	return resp.Records, ids, nil
}

// NodeStats implements locserv.Node: the node's counters read off its
// metrics snapshot, so a remote node answers exactly as the same node
// in process.
func (r *RemoteNode) NodeStats() (locserv.NodeStats, error) {
	snap, err := r.ObsSnapshot()
	if err != nil {
		return locserv.NodeStats{}, err
	}
	return locserv.NodeStatsOf(snap), nil
}

// ObsSnapshot implements locserv.ObsSnapshotter over the wire: one
// OpMetrics exchange whose response payload is the node's binary
// metrics snapshot.
func (r *RemoteNode) ObsSnapshot() (obs.Snapshot, error) {
	resp, err := r.call(wire.QueryRequest{Op: wire.OpMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.DecodeSnapshot(resp.Metrics)
}
