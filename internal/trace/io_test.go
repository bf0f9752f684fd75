package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"mapdr/internal/geo"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := constantSpeedTrace(12.5, 50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
	}
	for i := range got.Samples {
		a, b := got.Samples[i], tr.Samples[i]
		if math.Abs(a.T-b.T) > 1e-3 || a.Pos.Dist(b.Pos) > 1e-2 || math.Abs(a.V-b.V) > 1e-3 {
			t.Fatalf("sample %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("t,x,y,v,heading\n1,2\n")); err == nil {
		t.Error("expected field count error")
	}
	if _, err := ReadCSV(strings.NewReader("1,notanumber,3\n")); err == nil {
		t.Error("expected parse error")
	}
	// Non-monotonic time fails validation.
	if _, err := ReadCSV(strings.NewReader("5,0,0\n4,1,1\n")); err == nil {
		t.Error("expected validation error")
	}
}

func TestReadCSVSkipsHeaderAndBlank(t *testing.T) {
	in := "t,x,y,v,heading\n\n1,2,3\n\n2,3,4\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d", tr.Len())
	}
}

// nmeaLine frames a $GPRMC body as a sentence, with the XOR checksum
// computed here rather than by the writer under test.
func nmeaLine(body string) string {
	var cs byte
	for i := 0; i < len(body); i++ {
		cs ^= body[i]
	}
	return fmt.Sprintf("$%s*%02X\r\n", body, cs)
}

func TestWriteNMEAGolden(t *testing.T) {
	// Every sample sits at the projection origin, so the coordinate
	// fields are the origin in ddmm.mmmm: 48.7758° = 48° 46.548' N and
	// 9.1829° = 9° 10.974' E.
	proj := geo.NewProjection(geo.LatLon{Lat: 48.7758, Lon: 9.1829})
	tr := &Trace{Samples: []Sample{
		{T: 3723.5, V: 10, Heading: 0},        // 01:02:03.50; 19.44 kn due east
		{T: 90061.25, V: 0, Heading: math.Pi}, // 25:01:01.25 wraps to 01:01:01.25; due west
	}}
	var buf bytes.Buffer
	if err := WriteNMEA(&buf, tr, proj); err != nil {
		t.Fatal(err)
	}
	want := nmeaLine("GPRMC,010203.50,A,4846.5480,N,00910.9740,E,19.44,90.00,010100,,") +
		nmeaLine("GPRMC,010101.25,A,4846.5480,N,00910.9740,E,0.00,270.00,010100,,")
	if got := buf.String(); got != want {
		t.Errorf("WriteNMEA =\n%q\nwant\n%q", got, want)
	}
}

func TestNMEASouthWestHemispheres(t *testing.T) {
	// 33.9° = 33° 54' S and 70.7° = 70° 42' W (Santiago); 5 m/s is
	// 9.72 kn, and heading 1 rad is compass 90° - 57.30° = 32.70°.
	proj := geo.NewProjection(geo.LatLon{Lat: -33.9, Lon: -70.7})
	tr := &Trace{Samples: []Sample{{T: 1, V: 5, Heading: 1}}}
	var buf bytes.Buffer
	if err := WriteNMEA(&buf, tr, proj); err != nil {
		t.Fatal(err)
	}
	want := nmeaLine("GPRMC,000001.00,A,3354.0000,S,07042.0000,W,9.72,32.70,010100,,")
	if got := buf.String(); got != want {
		t.Errorf("WriteNMEA = %q, want %q", got, want)
	}
}
