package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// WanderPolicy controls random route selection.
type WanderPolicy struct {
	// StraightBias in [0,1]: probability mass assigned to continuing with
	// the smallest-deflection link; the remainder is spread over turns.
	StraightBias float64
	// ClassStickiness in [0,1]: extra weight for staying on the same road
	// class (e.g. a driver following the main road).
	ClassStickiness float64
	// AllowUTurn permits reversing on the arrival link when alternatives
	// exist (always permitted at dead ends).
	AllowUTurn bool
}

// DefaultWanderPolicy suits urban driving.
func DefaultWanderPolicy() WanderPolicy {
	return WanderPolicy{StraightBias: 0.5, ClassStickiness: 0.3}
}

// Wander generates a random but locally plausible route starting at start
// until at least minLength metres of links are accumulated. The walk
// prefers going straight and staying on the same road class, mimicking a
// driver with a destination beyond the map. minLength must be finite; a
// walk that needs more than 1,000,000 links fails.
func Wander(g *roadmap.Graph, seed int64, start roadmap.NodeID, minLength float64, pol WanderPolicy) (*roadmap.Route, error) {
	if math.IsNaN(minLength) || math.IsInf(minLength, 0) {
		return nil, fmt.Errorf("tracegen: wander length %v, must be finite", minLength)
	}
	rng := rand.New(rand.NewSource(seed))
	outs := g.OutgoingAppend(nil, start, roadmap.NoDir)
	if len(outs) == 0 {
		return nil, fmt.Errorf("tracegen: start node %d has no outgoing links", start)
	}
	cur := outs[rng.Intn(len(outs))]
	dirs := []roadmap.Dir{cur}
	var total float64 = g.Link(cur.Link).Length()

	var (
		alts    []roadmap.Dir
		weights []float64 // pickWeighted's buffer, reused
	)
	for total < minLength {
		// The cap holds on dead ends too: bouncing along a cul-de-sac
		// adds links forever when minLength is out of reach.
		if len(dirs) > 1_000_000 {
			return nil, fmt.Errorf("tracegen: wander did not reach %v m", minLength)
		}
		node := g.Link(cur.Link).EndNode(cur.Forward)
		arrivalHeading := g.Link(cur.Link).ExitHeading(cur.Forward)
		alts = g.OutgoingAppend(alts[:0], node, cur)
		if len(alts) == 0 || (pol.AllowUTurn && rng.Float64() < 0.02) {
			// Dead end (or rare deliberate U-turn): go back.
			back := roadmap.Dir{Link: cur.Link, Forward: !cur.Forward}
			if g.Link(cur.Link).OneWay && back.Forward == false {
				return nil, fmt.Errorf("tracegen: trapped at dead end of one-way link %d", cur.Link)
			}
			cur = back
			dirs = append(dirs, cur)
			total += g.Link(cur.Link).Length()
			continue
		}
		if cap(weights) < len(alts) {
			weights = make([]float64, len(alts))
		}
		cur = pickWeighted(g, rng, cur, arrivalHeading, alts, weights[:len(alts)], pol)
		dirs = append(dirs, cur)
		total += g.Link(cur.Link).Length()
	}
	return roadmap.NewRoute(g, dirs)
}

// pickWeighted selects the next directed link with straight/class bias.
// weights is a buffer of len(alts) it overwrites.
func pickWeighted(g *roadmap.Graph, rng *rand.Rand, in roadmap.Dir, arrivalHeading float64, alts []roadmap.Dir, weights []float64, pol WanderPolicy) roadmap.Dir {
	var sum float64
	smallest, smallestIdx := math.Inf(1), 0
	for i, alt := range alts {
		h := g.Link(alt.Link).EntryHeading(alt.Forward)
		a := geo.AbsAngleDiff(arrivalHeading, h)
		if a < smallest {
			smallest, smallestIdx = a, i
		}
		// Base weight decays with deflection: straight-ahead is natural.
		w := math.Cos(a/2) + 0.1
		if g.Link(alt.Link).Class == g.Link(in.Link).Class {
			w *= 1 + 2*pol.ClassStickiness
		}
		weights[i] = w
		sum += w
	}
	// Boost the straightest alternative by the straight bias.
	weights[smallestIdx] += pol.StraightBias * sum
	sum += pol.StraightBias * sum

	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return alts[i]
		}
	}
	return alts[len(alts)-1]
}

// CorridorRoute builds the through-route of a generated corridor by
// concatenating shortest paths between consecutive main nodes.
func CorridorRoute(g *roadmap.Graph, main []roadmap.NodeID) (*roadmap.Route, error) {
	if len(main) < 2 {
		return nil, fmt.Errorf("tracegen: corridor needs at least 2 main nodes")
	}
	var dirs []roadmap.Dir
	for i := 1; i < len(main); i++ {
		r, err := roadmap.ShortestPath(g, main[i-1], main[i], roadmap.LengthCost)
		if err != nil {
			return nil, fmt.Errorf("tracegen: corridor segment %d: %w", i, err)
		}
		dirs = append(dirs, r.Dirs()...)
	}
	return roadmap.NewRoute(g, dirs)
}
