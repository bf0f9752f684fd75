package roadmap

import (
	"math"

	"mapdr/internal/geo"
)

// TurnTable stores turn probabilities: for an (incoming directed link,
// outgoing directed link) pair at an intersection, the fraction of
// traversals that take the outgoing link. The paper's "map-based with
// probability information" variant predicts the outgoing link with the
// highest probability instead of the smallest deflection angle (§2).
type TurnTable struct {
	counts map[turnKey]float64
}

type turnKey struct {
	in, out Dir
}

// NewTurnTable returns an empty table.
func NewTurnTable() *TurnTable {
	return &TurnTable{counts: make(map[turnKey]float64)}
}

// Observe records weight traversals from in to out. Use weight 1 when
// learning from a trace.
func (t *TurnTable) Observe(in, out Dir, weight float64) {
	t.counts[turnKey{in, out}] += weight
}

// Prob returns the probability of turning from in to out, given the set of
// alternatives out of the intersection. Unobserved intersections return a
// uniform distribution.
func (t *TurnTable) Prob(in Dir, out Dir, alternatives []Dir) float64 {
	var total float64
	for _, alt := range alternatives {
		total += t.counts[turnKey{in, alt}]
	}
	if total == 0 {
		if len(alternatives) == 0 {
			return 0
		}
		return 1 / float64(len(alternatives))
	}
	return t.counts[turnKey{in, out}] / total
}

// Len returns the number of recorded (in, out) pairs.
func (t *TurnTable) Len() int { return len(t.counts) }

// TurnChooser selects the outgoing directed link a mobile object is
// assumed to follow when the prediction function reaches an intersection.
// It must be a pure function of its inputs so source and server agree.
type TurnChooser interface {
	// Choose picks among alternatives (never empty) for travel arriving at
	// the intersection via `in` with the given exit heading.
	Choose(g *Graph, in Dir, exitHeading float64, alternatives []Dir) Dir
	// Name identifies the chooser in reports.
	Name() string
}

// SmallestAngleChooser picks the outgoing link with the smallest
// deflection from the arrival heading — the paper's default ("the link
// with the smallest angle to the previous link is selected", §3).
type SmallestAngleChooser struct{}

// Choose implements TurnChooser.
func (SmallestAngleChooser) Choose(g *Graph, in Dir, exitHeading float64, alternatives []Dir) Dir {
	best := NoDir
	bestAngle := math.Inf(1)
	for _, alt := range alternatives {
		h := g.Link(alt.Link).EntryHeading(alt.Forward)
		if a := geo.AbsAngleDiff(exitHeading, h); a < bestAngle {
			best, bestAngle = alt, a
		}
	}
	return best
}

// Name implements TurnChooser.
func (SmallestAngleChooser) Name() string { return "smallest-angle" }

// ProbabilityChooser picks the most probable outgoing link according to a
// TurnTable, falling back to smallest angle on ties/unknowns.
type ProbabilityChooser struct {
	Turns *TurnTable
}

// Choose implements TurnChooser.
func (c ProbabilityChooser) Choose(g *Graph, in Dir, exitHeading float64, alternatives []Dir) Dir {
	best := NoDir
	bestProb := -1.0
	tied := false
	for _, alt := range alternatives {
		p := c.Turns.Prob(in, alt, alternatives)
		switch {
		case p > bestProb:
			best, bestProb, tied = alt, p, false
		case p == bestProb:
			tied = true
		}
	}
	if !best.IsValid() || tied || bestProb <= 0 {
		return SmallestAngleChooser{}.Choose(g, in, exitHeading, alternatives)
	}
	return best
}

// Name implements TurnChooser.
func (c ProbabilityChooser) Name() string { return "most-probable" }

// MainRoadChooser prefers outgoing links of the best (lowest) road class,
// breaking ties by smallest angle — the "ideally, the function would
// select the main road" behaviour the paper approximates (§3).
type MainRoadChooser struct{}

// Choose implements TurnChooser.
func (MainRoadChooser) Choose(g *Graph, in Dir, exitHeading float64, alternatives []Dir) Dir {
	bestClass := RoadClass(math.MaxUint8)
	for _, alt := range alternatives {
		if c := g.Link(alt.Link).Class; c < bestClass {
			bestClass = c
		}
	}
	filtered := make([]Dir, 0, len(alternatives))
	for _, alt := range alternatives {
		if g.Link(alt.Link).Class == bestClass {
			filtered = append(filtered, alt)
		}
	}
	return SmallestAngleChooser{}.Choose(g, in, exitHeading, filtered)
}

// Name implements TurnChooser.
func (MainRoadChooser) Name() string { return "main-road" }
