package roadmap

import (
	"math"
	"testing"

	"mapdr/internal/geo"
)

// buildFork builds a Y junction: approach link west->center, then a
// straight-ish continuation (5 degrees) and a sharp left branch (60
// degrees). The straight branch is residential; the left branch is a
// motorway (for MainRoadChooser tests).
func buildFork(t *testing.T) (*Graph, Dir, Dir, Dir) {
	t.Helper()
	b := NewBuilder()
	west := b.AddNode(geo.Pt(-200, 0))
	center := b.AddNode(geo.Pt(0, 0))
	straightEnd := b.AddNode(geo.Pt(geo.PolarPoint(geo.Pt(0, 0), geo.Rad(5), 200).X, geo.PolarPoint(geo.Pt(0, 0), geo.Rad(5), 200).Y))
	leftEnd := b.AddNode(geo.PolarPoint(geo.Pt(0, 0), geo.Rad(60), 200))
	approach := b.AddLink(LinkSpec{From: west, To: center, Class: ClassResidential})
	straight := b.AddLink(LinkSpec{From: center, To: straightEnd, Class: ClassResidential})
	left := b.AddLink(LinkSpec{From: center, To: leftEnd, Class: ClassMotorway})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g,
		Dir{Link: approach, Forward: true},
		Dir{Link: straight, Forward: true},
		Dir{Link: left, Forward: true}
}

func TestSmallestAngleChooser(t *testing.T) {
	g, in, straight, left := buildFork(t)
	node := g.Link(in.Link).EndNode(in.Forward)
	alts := g.OutgoingAppend(nil, node, in)
	if len(alts) != 2 {
		t.Fatalf("alternatives = %d", len(alts))
	}
	exitH := g.Link(in.Link).ExitHeading(in.Forward)
	got := SmallestAngleChooser{}.Choose(g, in, exitH, alts)
	if got != straight {
		t.Errorf("chose %+v, want straight %+v (left is %+v)", got, straight, left)
	}
}

func TestSmallestAngleChooserEmpty(t *testing.T) {
	g, in, _, _ := buildFork(t)
	got := SmallestAngleChooser{}.Choose(g, in, 0, nil)
	if got.IsValid() {
		t.Errorf("empty alternatives should yield NoDir, got %+v", got)
	}
}

func TestProbabilityChooser(t *testing.T) {
	g, in, straight, left := buildFork(t)
	node := g.Link(in.Link).EndNode(in.Forward)
	alts := g.OutgoingAppend(nil, node, in)
	exitH := g.Link(in.Link).ExitHeading(in.Forward)

	tt := NewTurnTable()
	ch := ProbabilityChooser{Turns: tt}
	// No observations: falls back to smallest angle (straight).
	if got := ch.Choose(g, in, exitH, alts); got != straight {
		t.Errorf("unobserved chose %+v", got)
	}
	// Observations make left dominant.
	tt.Observe(in, left, 9)
	tt.Observe(in, straight, 1)
	if got := ch.Choose(g, in, exitH, alts); got != left {
		t.Errorf("observed chose %+v, want left", got)
	}
}

func TestMainRoadChooser(t *testing.T) {
	g, in, _, left := buildFork(t)
	node := g.Link(in.Link).EndNode(in.Forward)
	alts := g.OutgoingAppend(nil, node, in)
	exitH := g.Link(in.Link).ExitHeading(in.Forward)
	// Motorway branch wins although its angle is larger.
	if got := (MainRoadChooser{}).Choose(g, in, exitH, alts); got != left {
		t.Errorf("MainRoadChooser chose %+v, want motorway branch", got)
	}
}

func TestChooserNames(t *testing.T) {
	if (SmallestAngleChooser{}).Name() == "" ||
		(ProbabilityChooser{}).Name() == "" ||
		(MainRoadChooser{}).Name() == "" {
		t.Error("chooser names must be non-empty")
	}
}

func TestChooserDeterminism(t *testing.T) {
	// The chooser must be a pure function: repeated calls agree (this is
	// the prerequisite for source/server prediction agreement).
	g, in, _, _ := buildFork(t)
	node := g.Link(in.Link).EndNode(in.Forward)
	alts := g.OutgoingAppend(nil, node, in)
	exitH := g.Link(in.Link).ExitHeading(in.Forward)
	first := (SmallestAngleChooser{}).Choose(g, in, exitH, alts)
	for i := 0; i < 100; i++ {
		if got := (SmallestAngleChooser{}).Choose(g, in, exitH, alts); got != first {
			t.Fatal("chooser is not deterministic")
		}
	}
	_ = math.Pi
}
