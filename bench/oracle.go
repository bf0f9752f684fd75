package main

import (
	"encoding/json"
	"fmt"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// oracle is the correctness reference: a single in-process store fed
// the same update stream as the cluster, answering through the
// brute-force scan paths. A cluster answer is correct when it names
// the same objects in the same order at the same coordinates, compared
// as the float64 values the JSON parses to.
type oracle struct {
	ref  *locserv.Service
	auto locserv.AutoRegister
}

func newOracle(w *world) *oracle {
	return &oracle{ref: locserv.New(), auto: w.mapPredictor}
}

// feed applies recs to the reference as the wire carries them: the
// frame codec narrows speed, heading and link offset to float32, so
// the records pass through it first.
func (o *oracle) feed(recs []wire.Record) error {
	for len(recs) > 0 {
		n := min(len(recs), frameBatched)
		onWire, _, err := wire.DecodeFrame(wire.AppendFrame(nil, recs[:n]))
		if err != nil {
			return fmt.Errorf("reference store: %w", err)
		}
		applied, err := o.ref.DeliverRecords(onWire, o.auto)
		if err != nil {
			return fmt.Errorf("reference store: %w", err)
		}
		if applied != n {
			return fmt.Errorf("reference store applied %d of %d records", applied, n)
		}
		recs = recs[n:]
	}
	return nil
}

// hitJSON is one element of the JSON query API's answers.
type hitJSON struct {
	ID   string  `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist"`
}

// check compares the body the cluster answered q with at time t to the
// reference's answer.
func (o *oracle) check(q query, t float64, body []byte) error {
	switch q.kind {
	case kindPosition:
		var got hitJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("position %s: %w", q.id, err)
		}
		want, ok := o.ref.Position(locserv.ObjectID(q.id), t)
		if !ok {
			return fmt.Errorf("position %s: reference has no report", q.id)
		}
		if got.ID != q.id || got.X != want.X || got.Y != want.Y {
			return fmt.Errorf("position %s at t=%v: got (%v, %v), reference (%v, %v)", q.id, t, got.X, got.Y, want.X, want.Y)
		}
		return nil
	case kindNearest:
		return sameHits("nearest", body, o.ref.ReferenceNearest(geo.Pt(q.x, q.y), nearestK, t), true)
	default:
		return sameHits("within", body, o.ref.ReferenceWithin(q.rect(), t), false)
	}
}

func sameHits(op string, body []byte, want []locserv.ObjectPos, withDist bool) error {
	var got []hitJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: got %d hits, reference %d", op, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != string(w.ID) || g.X != w.Pos.X || g.Y != w.Pos.Y || (withDist && g.Dist != w.Dist) {
			return fmt.Errorf("%s: hit %d is %+v, reference %+v", op, i, g, w)
		}
	}
	return nil
}
