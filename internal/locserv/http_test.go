package locserv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
)

// TestHTTPBadRequests covers the handlers' negative paths: missing and
// garbage query parameters, unknown objects, and non-GET methods.
func TestHTTPBadRequests(t *testing.T) {
	s := New()
	if err := s.Register("car1", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("silent", core.LinearPredictor{}); err != nil {
		t.Fatal(err)
	}
	applyAt(t, s, "car1", 1, 0, geo.Pt(0, 0), 10, 0)
	ts := httptest.NewServer(NewNodeService(s, nil).Handler())
	defer ts.Close()

	cases := []struct {
		name string
		path string
		want int
	}{
		{"position missing id", "/position?t=0", http.StatusBadRequest},
		{"position missing t", "/position?id=car1", http.StatusBadRequest},
		{"position garbage t", "/position?id=car1&t=abc", http.StatusBadRequest},
		{"position empty query", "/position", http.StatusBadRequest},
		{"position unknown id", "/position?id=ghost&t=0", http.StatusNotFound},
		{"position registered but unreported", "/position?id=silent&t=0", http.StatusNotFound},
		{"nearest missing x", "/nearest?y=0&k=1&t=0", http.StatusBadRequest},
		{"nearest garbage x", "/nearest?x=nope&y=0&k=1&t=0", http.StatusBadRequest},
		{"nearest garbage k", "/nearest?x=0&y=0&k=three&t=0", http.StatusBadRequest},
		{"nearest zero k", "/nearest?x=0&y=0&k=0&t=0", http.StatusBadRequest},
		{"nearest negative k", "/nearest?x=0&y=0&k=-2&t=0", http.StatusBadRequest},
		{"nearest missing t", "/nearest?x=0&y=0&k=1", http.StatusBadRequest},
		{"within missing bounds", "/within?minx=0&t=0", http.StatusBadRequest},
		{"within garbage maxy", "/within?minx=0&miny=0&maxx=10&maxy=ten&t=0", http.StatusBadRequest},
		{"within missing t", "/within?minx=0&miny=0&maxx=10&maxy=10", http.StatusBadRequest},
		{"unknown route", "/teleport?id=car1", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("%s -> %d (want %d): %s", tc.path, resp.StatusCode, tc.want, strings.TrimSpace(string(body)))
			}
		})
	}

	// The mux registers GET-only patterns: other methods are rejected.
	resp, err := http.Post(ts.URL+"/objects", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /objects -> %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

// TestHTTPEmptyStore checks that an empty service serves well-formed
// empty answers rather than nulls or errors.
func TestHTTPEmptyStore(t *testing.T) {
	ts := httptest.NewServer(NewNodeService(New(), nil).Handler())
	defer ts.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
	}

	var ids []string
	getJSON("/objects", &ids)
	if ids == nil || len(ids) != 0 {
		t.Errorf("/objects = %v, want []", ids)
	}
	var hits []map[string]any
	getJSON("/nearest?x=0&y=0&k=3&t=0", &hits)
	if hits == nil || len(hits) != 0 {
		t.Errorf("/nearest = %v, want []", hits)
	}
	var within []map[string]any
	getJSON("/within?minx=0&miny=0&maxx=10&maxy=10&t=0", &within)
	if within == nil || len(within) != 0 {
		t.Errorf("/within = %v, want []", within)
	}

	resp, err := http.Get(ts.URL + "/position?id=anyone&t=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/position on empty store -> %d, want 404", resp.StatusCode)
	}
}
