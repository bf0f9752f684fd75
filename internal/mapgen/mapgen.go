// Package mapgen generates synthetic road networks with controlled
// movement-relevant properties (curvature, intersection density, traffic
// signals, road classes). It substitutes for the proprietary car-navigation
// map used in the paper (the generators row of the README's "Architecture:
// paper → packages" table).
//
// All generators are deterministic functions of their seed.
package mapgen

import (
	"fmt"
	"math"
	"math/rand"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// Corridor is a generated network plus the node sequence of its main
// through-route, which the movement simulator follows for the freeway and
// inter-urban scenarios.
type Corridor struct {
	Graph *roadmap.Graph
	Main  []roadmap.NodeID // consecutive nodes of the main route
}

// FreewayConfig parameterises Freeway.
type FreewayConfig struct {
	Seed       int64
	LengthKm   float64 // target corridor length (paper trace: 163 km)
	MinLink    float64 // m, minimum junction spacing
	MaxLink    float64 // m, maximum junction spacing
	MaxDeflect float64 // rad, max heading change per link
	ExitProb   float64 // probability of an exit ramp at a junction
	ShapeStep  float64 // m, shape point spacing
	SpeedLimit float64 // m/s on the main carriageway
	RampSpeed  float64 // m/s on ramps
}

// DefaultFreewayConfig mirrors the paper's freeway trace scale.
func DefaultFreewayConfig(seed int64) FreewayConfig {
	return FreewayConfig{
		Seed:       seed,
		LengthKm:   163,
		MinLink:    1500,
		MaxLink:    4000,
		MaxDeflect: geo.Rad(28),
		ExitProb:   0.55,
		ShapeStep:  150,
		SpeedLimit: 130 / 3.6,
		RampSpeed:  60 / 3.6,
	}
}

// Freeway generates a curved motorway corridor with occasional exits.
// The gentle but persistent curvature is what separates map-based from
// linear prediction on freeways (paper Fig. 3 vs Fig. 6).
func Freeway(cfg FreewayConfig) (*Corridor, error) {
	if cfg.LengthKm <= 0 {
		return nil, fmt.Errorf("mapgen: LengthKm must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := roadmap.NewBuilder()

	pos := geo.Pt(0, 0)
	heading := rng.Float64() * 2 * math.Pi
	cur := b.AddNode(pos)
	main := []roadmap.NodeID{cur}
	var builtLen float64
	target := cfg.LengthKm * 1000

	for builtLen < target {
		linkLen := cfg.MinLink + rng.Float64()*(cfg.MaxLink-cfg.MinLink)
		turn := (rng.Float64()*2 - 1) * cfg.MaxDeflect
		// Drift the corridor back toward east-ish headings so it doesn't
		// spiral; freeways trend in one direction.
		turn -= 0.1 * geo.NormalizeAngle(heading)
		nextHeading := geo.NormalizeAngle(heading + turn)

		shape := curvedShape(pos, heading, nextHeading, linkLen, cfg.ShapeStep)
		endPt := shape[len(shape)-1]
		next := b.AddNode(endPt)
		b.AddLink(roadmap.LinkSpec{
			From: cur, To: next, Shape: shape[1 : len(shape)-1],
			Class: roadmap.ClassMotorway, SpeedLimit: cfg.SpeedLimit,
			Name: "A81",
		})
		builtLen += shape.Length()

		// Exit ramp: a short secondary road leaving the junction.
		if rng.Float64() < cfg.ExitProb {
			side := 1.0
			if rng.Float64() < 0.5 {
				side = -1
			}
			rampHeading := geo.NormalizeAngle(nextHeading + side*(geo.Rad(25)+rng.Float64()*geo.Rad(40)))
			rampLen := 300 + rng.Float64()*600
			rampShape := curvedShape(endPt, rampHeading, rampHeading, rampLen, cfg.ShapeStep)
			rampEnd := b.AddNode(rampShape[len(rampShape)-1])
			b.AddLink(roadmap.LinkSpec{
				From: next, To: rampEnd, Shape: rampShape[1 : len(rampShape)-1],
				Class: roadmap.ClassSecondary, SpeedLimit: cfg.RampSpeed,
				Name: "exit",
			})
		}

		pos, heading, cur = endPt, nextHeading, next
		main = append(main, cur)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Corridor{Graph: g, Main: main}, nil
}

// InterUrbanConfig parameterises InterUrban.
type InterUrbanConfig struct {
	Seed       int64
	LengthKm   float64 // target main route length (paper trace: 99 km)
	MinLink    float64
	MaxLink    float64
	MaxDeflect float64 // winding country roads deflect more than freeways
	SideProb   float64 // side road probability at junctions
	VillageGap float64 // m of route between villages
	ShapeStep  float64
}

// DefaultInterUrbanConfig mirrors the paper's inter-urban trace scale.
func DefaultInterUrbanConfig(seed int64) InterUrbanConfig {
	return InterUrbanConfig{
		Seed:       seed,
		LengthKm:   99,
		MinLink:    500,
		MaxLink:    1500,
		MaxDeflect: geo.Rad(55),
		SideProb:   0.6,
		VillageGap: 7000,
		ShapeStep:  80,
	}
}

// InterUrban generates a winding trunk road passing through villages with
// signalised junctions and side roads.
func InterUrban(cfg InterUrbanConfig) (*Corridor, error) {
	if cfg.LengthKm <= 0 {
		return nil, fmt.Errorf("mapgen: LengthKm must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := roadmap.NewBuilder()

	pos := geo.Pt(0, 0)
	heading := rng.Float64() * 2 * math.Pi
	cur := b.AddNode(pos)
	main := []roadmap.NodeID{cur}
	var builtLen, sinceVillage float64
	target := cfg.LengthKm * 1000

	for builtLen < target {
		inVillage := sinceVillage >= cfg.VillageGap
		linkLen := cfg.MinLink + rng.Float64()*(cfg.MaxLink-cfg.MinLink)
		speed := 100 / 3.6
		class := roadmap.ClassTrunk
		if inVillage {
			linkLen = 150 + rng.Float64()*250
			speed = 50 / 3.6
			class = roadmap.ClassResidential
		}
		turn := (rng.Float64()*2 - 1) * cfg.MaxDeflect
		turn -= 0.08 * geo.NormalizeAngle(heading)
		nextHeading := geo.NormalizeAngle(heading + turn)

		shape := curvedShape(pos, heading, nextHeading, linkLen, cfg.ShapeStep)
		endPt := shape[len(shape)-1]
		var next roadmap.NodeID
		if inVillage && rng.Float64() < 0.7 {
			next = b.AddSignalNode(endPt)
		} else {
			next = b.AddNode(endPt)
		}
		b.AddLink(roadmap.LinkSpec{
			From: cur, To: next, Shape: shape[1 : len(shape)-1],
			Class: class, SpeedLimit: speed, Name: "B27",
		})
		builtLen += shape.Length()
		sinceVillage += shape.Length()
		if inVillage {
			sinceVillage = 0
		}

		if rng.Float64() < cfg.SideProb {
			side := 1.0
			if rng.Float64() < 0.5 {
				side = -1
			}
			sideHeading := geo.NormalizeAngle(nextHeading + side*(geo.Rad(45)+rng.Float64()*geo.Rad(60)))
			sideLen := 200 + rng.Float64()*500
			sideShape := curvedShape(endPt, sideHeading, sideHeading, sideLen, cfg.ShapeStep)
			sideEnd := b.AddNode(sideShape[len(sideShape)-1])
			b.AddLink(roadmap.LinkSpec{
				From: next, To: sideEnd, Shape: sideShape[1 : len(sideShape)-1],
				Class: roadmap.ClassResidential, SpeedLimit: 50 / 3.6,
			})
		}

		pos, heading, cur = endPt, nextHeading, next
		main = append(main, cur)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Corridor{Graph: g, Main: main}, nil
}

// curvedShape builds a smooth polyline of roughly the given length from
// startPt, entering at heading h0 and leaving at heading h1, using a cubic
// Bezier whose control arms lie along the entry/exit headings.
func curvedShape(startPt geo.Point, h0, h1, length, shapeStep float64) geo.Polyline {
	if shapeStep <= 0 {
		shapeStep = 100
	}
	arm := length / 3
	p0 := startPt
	p1 := geo.PolarPoint(p0, h0, arm)
	// End point: place along the average heading.
	mid := geo.NormalizeAngle(h0 + geo.AngleDiff(h0, h1)/2)
	p3 := geo.PolarPoint(p0, mid, length)
	p2 := geo.PolarPoint(p3, h1+math.Pi, arm)
	n := int(math.Max(4, length/shapeStep))
	return geo.CubicBezier(p0, p1, p2, p3, n)
}
