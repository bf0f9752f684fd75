package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mapdr/internal/geo"
)

// WriteCSV writes the trace as "t,x,y,v,heading" rows with a header line.
func WriteCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t,x,y,v,heading"); err != nil {
		return err
	}
	for _, s := range tr.Samples {
		if _, err := fmt.Fprintf(bw, "%.3f,%.3f,%.3f,%.3f,%.5f\n",
			s.T, s.Pos.X, s.Pos.Y, s.V, s.Heading); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	tr := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || (lineNo == 1 && strings.HasPrefix(line, "t,")) {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d has %d fields", lineNo, len(fields))
		}
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %w", lineNo, i, err)
			}
			vals[i] = v
		}
		s := Sample{T: vals[0], Pos: geo.Pt(vals[1], vals[2])}
		if len(vals) > 3 {
			s.V = vals[3]
		}
		if len(vals) > 4 {
			s.Heading = vals[4]
		}
		tr.Samples = append(tr.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, tr.Validate()
}

// nmeaChecksum computes the XOR checksum of the sentence body (between
// '$' and '*').
func nmeaChecksum(body string) byte {
	var cs byte
	for i := 0; i < len(body); i++ {
		cs ^= body[i]
	}
	return cs
}

// formatNMEACoord renders decimal degrees in NMEA ddmm.mmmm form with the
// hemisphere letter.
func formatNMEACoord(deg float64, posHemi, negHemi string, latWidth bool) string {
	hemi := posHemi
	if deg < 0 {
		hemi = negHemi
		deg = -deg
	}
	d := math.Floor(deg)
	m := (deg - d) * 60
	if latWidth {
		return fmt.Sprintf("%02.0f%07.4f,%s", d, m, hemi)
	}
	return fmt.Sprintf("%03.0f%07.4f,%s", d, m, hemi)
}

// WriteNMEA writes the trace as $GPRMC sentences, converting planar
// coordinates to WGS84 via proj. Times are rendered as hhmmss.ss offsets
// from 00:00:00.
func WriteNMEA(w io.Writer, tr *Trace, proj *geo.Projection) error {
	bw := bufio.NewWriter(w)
	for _, s := range tr.Samples {
		ll := proj.Inverse(s.Pos)
		tt := s.T
		hh := int(tt/3600) % 24
		mm := int(tt/60) % 60
		ss := math.Mod(tt, 60)
		speedKnots := s.V * 1.943844
		course := geo.HeadingToCompass(s.Heading)
		body := fmt.Sprintf("GPRMC,%02d%02d%05.2f,A,%s,%s,%.2f,%.2f,010100,,",
			hh, mm, ss,
			formatNMEACoord(ll.Lat, "N", "S", true),
			formatNMEACoord(ll.Lon, "E", "W", false),
			speedKnots, course)
		if _, err := fmt.Fprintf(bw, "$%s*%02X\r\n", body, nmeaChecksum(body)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
