package roadmap

import (
	"encoding/json"
	"fmt"
	"io"

	"mapdr/internal/geo"
)

// jsonMap is the JSON wire representation of a road network.
type jsonMap struct {
	Version int        `json:"version"`
	Nodes   []jsonNode `json:"nodes"`
	Links   []jsonLink `json:"links"`
}

type jsonNode struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Signal bool    `json:"signal,omitempty"`
}

type jsonLink struct {
	From       NodeID       `json:"from"`
	To         NodeID       `json:"to"`
	Shape      [][2]float64 `json:"shape"` // interior shape points only
	Class      uint8        `json:"class"`
	SpeedLimit float64      `json:"speedLimit,omitempty"`
	OneWay     bool         `json:"oneWay,omitempty"`
	Name       string       `json:"name,omitempty"`
}

const formatVersion = 1

// WriteJSON serialises the graph as JSON.
func WriteJSON(w io.Writer, g *Graph) error {
	jm := jsonMap{Version: formatVersion}
	for i := range g.nodes {
		n := &g.nodes[i]
		jm.Nodes = append(jm.Nodes, jsonNode{X: n.Pt.X, Y: n.Pt.Y, Signal: n.Signal})
	}
	for i := range g.links {
		l := &g.links[i]
		jl := jsonLink{
			From: l.From, To: l.To,
			Class: uint8(l.Class), SpeedLimit: l.SpeedLimit,
			OneWay: l.OneWay, Name: l.Name,
		}
		for _, p := range l.Shape[1 : len(l.Shape)-1] {
			jl.Shape = append(jl.Shape, [2]float64{p.X, p.Y})
		}
		jm.Links = append(jm.Links, jl)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jm)
}

// ReadJSON deserialises a graph written by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jm jsonMap
	if err := json.NewDecoder(r).Decode(&jm); err != nil {
		return nil, fmt.Errorf("roadmap: decode json: %w", err)
	}
	if jm.Version != formatVersion {
		return nil, fmt.Errorf("roadmap: unsupported version %d", jm.Version)
	}
	b := NewBuilder()
	for _, n := range jm.Nodes {
		if n.Signal {
			b.AddSignalNode(geo.Pt(n.X, n.Y))
		} else {
			b.AddNode(geo.Pt(n.X, n.Y))
		}
	}
	for _, l := range jm.Links {
		shape := make(geo.Polyline, 0, len(l.Shape))
		for _, p := range l.Shape {
			shape = append(shape, geo.Pt(p[0], p[1]))
		}
		b.AddLink(LinkSpec{
			From: l.From, To: l.To, Shape: shape,
			Class: RoadClass(l.Class), SpeedLimit: l.SpeedLimit,
			OneWay: l.OneWay, Name: l.Name,
		})
	}
	return b.Build()
}
