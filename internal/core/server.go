package core

import (
	"math"
	"sync"

	"mapdr/internal/geo"
)

// Server is the location-server side of the protocol: it stores the last
// reported object state and answers position queries by evaluating the
// same prediction function as the source (paper Fig. 1, posQuery).
//
// For predictors whose evaluation walks state forward (the map-based
// family and known-route), the server caches a prediction cursor over
// the last report, so query streams at advancing times cost O(time
// delta) instead of O(time since the report) each; Apply re-aims the
// cursor at the new report (Cursor.Reset), so a report and the queries
// after it allocate nothing. The cursor is minted at the first query,
// not at construction or Apply: a replica that is never queried never
// builds one. It is guarded by a mutex: Position may be called
// concurrently with itself (the location service's query fan-outs do),
// while Apply requires external synchronisation against queries (the
// location service's shard lock provides it).
type Server struct {
	pred Predictor

	last      Report
	hasReport bool

	updates int64
	bytes   int64

	// useCursor is fixed at construction: closed-form predictors answer
	// any t in O(1), so for them the cursor cache would be pure overhead.
	useCursor bool
	curMu     sync.Mutex
	cursor    Cursor

	// fastLinear is fixed at construction for LinearPredictor: the only
	// trigonometry its prediction needs depends on the report alone, so
	// Apply precomputes cos/sin of the heading once and Position answers
	// with two multiply-adds — the same floating-point operations
	// PolarPoint performs, so results stay bit-identical.
	fastLinear bool
	cosH, sinH float64
}

// NewServer returns a server replica driven by the given predictor, which
// must be configured identically to the source's.
func NewServer(pred Predictor) *Server {
	_, linear := pred.(LinearPredictor)
	return &Server{pred: pred, useCursor: cursorPays(pred), fastLinear: linear}
}

// Apply ingests an update message and reports whether it advanced the
// replica (false for stale or duplicated deliveries).
func (sv *Server) Apply(u Update) bool {
	// Stale or duplicated messages (out-of-order delivery) are ignored:
	// sequence numbers only move forward.
	if sv.hasReport && u.Report.Seq <= sv.last.Seq {
		return false
	}
	sv.last = u.Report
	sv.hasReport = true
	sv.updates++
	sv.bytes += int64(u.Report.EncodedSize())
	if sv.fastLinear {
		sv.cosH = math.Cos(u.Report.Heading)
		sv.sinH = math.Sin(u.Report.Heading)
	}
	if sv.useCursor {
		sv.curMu.Lock()
		if sv.cursor != nil {
			sv.cursor.Reset(u.Report)
		}
		sv.curMu.Unlock()
	}
	return true
}

// Position answers a position query at time t. ok is false before the
// first update arrives.
func (sv *Server) Position(t float64) (geo.Point, bool) {
	if !sv.hasReport {
		return geo.Point{}, false
	}
	if sv.fastLinear {
		dt := t - sv.last.T
		if dt <= 0 {
			return sv.last.Pos, true
		}
		r := sv.last.V * dt
		return geo.Point{X: sv.last.Pos.X + r*sv.cosH, Y: sv.last.Pos.Y + r*sv.sinH}, true
	}
	if sv.useCursor {
		sv.curMu.Lock()
		if sv.cursor == nil {
			sv.cursor = sv.pred.NewCursor(sv.last)
		}
		p := sv.cursor.At(t)
		sv.curMu.Unlock()
		return p, true
	}
	return sv.pred.Predict(sv.last, t), true
}

// LastReport returns the last applied report.
func (sv *Server) LastReport() (Report, bool) { return sv.last, sv.hasReport }

// Seq returns the last applied report's protocol sequence number (0
// before the first update) — the freshness signal replicated location
// services merge on.
func (sv *Server) Seq() uint32 { return sv.last.Seq }

// Updates returns the number of updates applied.
func (sv *Server) Updates() int64 { return sv.updates }

// Bytes returns the total wire bytes of applied updates, summing each
// report's actual variable-length encoded size.
func (sv *Server) Bytes() int64 { return sv.bytes }

// Predictor returns the server's prediction function.
func (sv *Server) Predictor() Predictor { return sv.pred }
