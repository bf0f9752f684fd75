package locserv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
)

func applyAt(t *testing.T, s *Service, id ObjectID, seq uint32, tt float64, pos geo.Point, v, heading float64) {
	t.Helper()
	err := s.Apply(id, core.Update{Report: core.Report{
		Seq: seq, T: tt, Pos: pos, V: v, Heading: heading,
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAndPosition(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("car1", core.LinearPredictor{}); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := s.Register("", core.LinearPredictor{}); err == nil {
		t.Error("empty id should fail")
	}
	if _, ok := s.Position("car1", 0); ok {
		t.Error("position before report")
	}
	applyAt(t, s, "car1", 1, 0, geo.Pt(0, 0), 10, 0)
	p, ok := s.Position("car1", 5)
	if !ok || p.Dist(geo.Pt(50, 0)) > 1e-9 {
		t.Errorf("predicted %v ok=%v", p, ok)
	}
	if err := s.Apply("ghost", core.Update{}); err == nil {
		t.Error("unknown object should fail")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Deregister("car1")
	if s.Len() != 0 {
		t.Error("deregister failed")
	}
}

func TestNearestQuery(t *testing.T) {
	s := New()
	// Three taxis at different spots, one never reported.
	for _, id := range []ObjectID{"taxi1", "taxi2", "taxi3", "silent"} {
		if err := s.Register(id, core.StaticPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	applyAt(t, s, "taxi1", 1, 0, geo.Pt(100, 0), 0, 0)
	applyAt(t, s, "taxi2", 1, 0, geo.Pt(500, 0), 0, 0)
	applyAt(t, s, "taxi3", 1, 0, geo.Pt(20, 10), 0, 0)

	hits := s.Nearest(geo.Pt(0, 0), 2, 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].ID != "taxi3" || hits[1].ID != "taxi1" {
		t.Errorf("order = %v, %v", hits[0].ID, hits[1].ID)
	}
	if hits[0].Dist > hits[1].Dist {
		t.Error("not sorted by distance")
	}
	if got := s.Nearest(geo.Pt(0, 0), 0, 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestNearestUsesPrediction(t *testing.T) {
	s := New()
	if err := s.Register("mover", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("parked", core.StaticPredictor{}); err != nil {
		t.Fatal(err)
	}
	// mover heads east from origin at 20 m/s; parked sits at (300, 0).
	applyAt(t, s, "mover", 1, 0, geo.Pt(0, 0), 20, 0)
	applyAt(t, s, "parked", 1, 0, geo.Pt(300, 0), 0, 0)
	// At t=0 parked is farther from (500,0); at t=30 the mover has passed it.
	if hits := s.Nearest(geo.Pt(500, 0), 1, 0); hits[0].ID != "parked" {
		t.Errorf("t=0 nearest = %v", hits[0].ID)
	}
	if hits := s.Nearest(geo.Pt(500, 0), 1, 30); hits[0].ID != "mover" {
		t.Errorf("t=30 nearest = %v", hits[0].ID)
	}
}

func TestWithinQuery(t *testing.T) {
	s := New()
	for _, id := range []ObjectID{"a", "b", "c"} {
		if err := s.Register(id, core.StaticPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	applyAt(t, s, "a", 1, 0, geo.Pt(10, 10), 0, 0)
	applyAt(t, s, "b", 1, 0, geo.Pt(90, 90), 0, 0)
	applyAt(t, s, "c", 1, 0, geo.Pt(200, 200), 0, 0)
	hits := s.Within(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(100, 100)}, 0)
	if len(hits) != 2 || hits[0].ID != "a" || hits[1].ID != "b" {
		t.Errorf("within = %+v", hits)
	}
}

func TestObjectsSorted(t *testing.T) {
	s := New()
	for _, id := range []ObjectID{"zebra", "alpha", "mid"} {
		if err := s.Register(id, core.StaticPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.Objects()
	if len(ids) != 3 || ids[0] != "alpha" || ids[2] != "zebra" {
		t.Errorf("objects = %v", ids)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	if err := s.Register("obj", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if w%2 == 0 {
					_ = s.Apply("obj", core.Update{Report: core.Report{
						Seq: uint32(w*1000 + i), T: float64(i), Pos: geo.Pt(float64(i), 0),
					}})
				} else {
					s.Position("obj", float64(i))
					s.Nearest(geo.Pt(0, 0), 1, float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestHTTPAPI(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	applyAt(t, s, "car1", 1, 0, geo.Pt(0, 0), 10, 0)
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()

	get := func(path string, want int) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s -> %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}

	// Objects.
	resp := get("/objects", 200)
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ids) != 1 || ids[0] != "car1" {
		t.Errorf("objects = %v", ids)
	}

	// Position at t=10: x = 100.
	resp = get("/position?id=car1&t=10", 200)
	var pj struct {
		ID string  `json:"id"`
		X  float64 `json:"x"`
		Y  float64 `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pj.X != 100 || pj.Y != 0 {
		t.Errorf("position = %+v", pj)
	}

	// Errors.
	get("/position?id=ghost&t=0", 404).Body.Close()
	get("/position?id=car1", 400).Body.Close()
	get("/nearest?x=0&y=0&k=0&t=0", 400).Body.Close()
	get("/within?minx=0", 400).Body.Close()

	// Nearest.
	resp = get("/nearest?x=0&y=0&k=1&t=0", 200)
	var hits []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hits) != 1 || hits[0].ID != "car1" {
		t.Errorf("nearest = %+v", hits)
	}

	// Within.
	resp = get("/within?minx=-10&miny=-10&maxx=10&maxy=10&t=0", 200)
	var within []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&within); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(within) != 1 {
		t.Errorf("within = %+v", within)
	}
}
