package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(w.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v", w.Var())
	}
	if w.Max() != 9 {
		t.Errorf("Max = %v", w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator should be all zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Var() != 0 || w.Max() != 42 {
		t.Error("single observation stats wrong")
	}
}

func TestSampleQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Errorf("median = %v", q)
	}
	if q := s.Quantile(0.95); math.Abs(q-95.05) > 1e-9 {
		t.Errorf("p95 = %v", q)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sample should return NaN")
	}
}

func TestSampleQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 200.0)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") || !strings.Contains(out, "200") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
	// The last column is padded like the others ("1.5" under "value"),
	// but no line may carry that padding to its end.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, " ") {
			t.Errorf("line %q ends in padding", line)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", "plain")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",plain\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.50:   "1.5",
		200.00: "200",
		0.0:    "0",
		-3.25:  "-3.25",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
