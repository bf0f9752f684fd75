package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms are exposed with cumulative
// per-octave le bounds — one bucket per power of two in the exposed
// unit — which keeps a scrape at ~40 lines per histogram while the
// full 16-sub-bucket resolution stays available to Quantile over the
// wire snapshot.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	seenHeader := make(map[string]bool)
	for _, m := range s.Sorted() {
		if !seenHeader[m.Name] {
			seenHeader[m.Name] = true
			if m.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.Name, m.Help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, typeString(m.Kind))
		}
		switch m.Kind {
		case KindHistogram:
			writeHistText(bw, m)
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.Name, braces(m.Labels), fmtFloat(m.Value))
		}
	}
	return bw.Flush()
}

func typeString(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func labelJoin(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistText emits cumulative buckets at octave boundaries. The
// final +Inf bucket equals the total count (including overflow).
func writeHistText(w io.Writer, m MetricSnapshot) {
	h := m.Hist
	if h == nil {
		return
	}
	var cum uint64
	next := 0
	for exp := 0; exp <= histMaxExp; exp++ {
		// Buckets strictly below 2^exp ticks: indices < bucketIdx(1<<exp).
		var hi int
		if exp == histMaxExp {
			hi = histBuckets
		} else {
			hi = bucketIdx(uint64(1) << uint(exp))
		}
		for ; next < hi && next < len(h.Buckets); next++ {
			cum += h.Buckets[next]
		}
		le := float64(uint64(1)<<uint(exp)) / h.TicksPerUnit
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.Name,
			labelJoin(m.Labels, `le="`+fmtFloat(le)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", m.Name, labelJoin(m.Labels, `le="+Inf"`), h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, braces(m.Labels), fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", m.Name, braces(m.Labels), h.Count)
}

// Binary snapshot codec — the blob a node ships to its coordinator in
// an OpMetrics response. Histogram buckets travel sparse (index,
// count) pairs, so an idle histogram costs a handful of bytes.
const snapshotCodecVersion = 1

// AppendBinary appends the snapshot's binary encoding to buf.
func (s Snapshot) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, snapshotCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.Metrics)))
	for _, m := range s.Metrics {
		buf = appendString(buf, m.Name)
		buf = appendString(buf, m.Help)
		buf = appendString(buf, m.Labels)
		buf = append(buf, byte(m.Kind))
		if m.Kind == KindHistogram && m.Hist != nil {
			h := m.Hist
			buf = binary.AppendUvarint(buf, math.Float64bits(h.TicksPerUnit))
			buf = binary.AppendUvarint(buf, h.Count)
			buf = binary.AppendUvarint(buf, h.Overflow)
			buf = binary.AppendUvarint(buf, h.SumTicks)
			nz := 0
			for _, c := range h.Buckets {
				if c != 0 {
					nz++
				}
			}
			buf = binary.AppendUvarint(buf, uint64(nz))
			for i, c := range h.Buckets {
				if c != 0 {
					buf = binary.AppendUvarint(buf, uint64(i))
					buf = binary.AppendUvarint(buf, c)
				}
			}
		} else {
			buf = binary.AppendUvarint(buf, math.Float64bits(m.Value))
		}
	}
	return buf
}

// minMetricSize is the smallest encoded metric: three empty strings, the
// kind byte and a one-byte value.
const minMetricSize = 5

// maxDecodedHists bounds the histograms one DecodeSnapshot expands. Each
// becomes a dense histBuckets array however few bytes it arrived in, so
// without a bound a blob of empty histograms allocates ~500× its size. A
// node registers a handful.
const maxDecodedHists = 128

// DecodeSnapshot parses a binary snapshot. It is tolerant of a newer
// codec version only in that it fails cleanly. The blob arrives from
// the network, so what it may allocate is bounded by its length and by
// maxDecodedHists, never by the counts it claims.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	ver, n := binary.Uvarint(b)
	if n <= 0 || ver != snapshotCodecVersion {
		return s, fmt.Errorf("obs: bad snapshot codec version")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/minMetricSize {
		return s, fmt.Errorf("obs: bad snapshot metric count")
	}
	b = b[n:]
	s.Metrics = make([]MetricSnapshot, 0, min(count, 64))
	hists := 0
	for i := uint64(0); i < count; i++ {
		var m MetricSnapshot
		var err error
		if m.Name, b, err = takeString(b); err != nil {
			return s, err
		}
		if m.Help, b, err = takeString(b); err != nil {
			return s, err
		}
		if m.Labels, b, err = takeString(b); err != nil {
			return s, err
		}
		if len(b) == 0 {
			return s, fmt.Errorf("obs: truncated snapshot")
		}
		m.Kind = Kind(b[0])
		b = b[1:]
		if m.Kind == KindHistogram {
			if hists++; hists > maxDecodedHists {
				return s, fmt.Errorf("obs: snapshot holds more than %d histograms", maxDecodedHists)
			}
			var h HistSnapshot
			var vals [4]uint64
			for j := range vals {
				v, n := binary.Uvarint(b)
				if n <= 0 {
					return s, fmt.Errorf("obs: truncated histogram")
				}
				vals[j] = v
				b = b[n:]
			}
			h.TicksPerUnit = math.Float64frombits(vals[0])
			h.Count, h.Overflow, h.SumTicks = vals[1], vals[2], vals[3]
			nz, n := binary.Uvarint(b)
			if n <= 0 || nz > histBuckets {
				return s, fmt.Errorf("obs: bad histogram bucket count")
			}
			b = b[n:]
			h.Buckets = make([]uint64, histBuckets)
			for j := uint64(0); j < nz; j++ {
				idx, n := binary.Uvarint(b)
				if n <= 0 || idx >= histBuckets {
					return s, fmt.Errorf("obs: bad histogram bucket index")
				}
				b = b[n:]
				c, n := binary.Uvarint(b)
				if n <= 0 {
					return s, fmt.Errorf("obs: truncated histogram bucket")
				}
				b = b[n:]
				h.Buckets[idx] = c
			}
			m.Hist = &h
		} else {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return s, fmt.Errorf("obs: truncated metric value")
			}
			m.Value = math.Float64frombits(v)
			b = b[n:]
		}
		s.Metrics = append(s.Metrics, m)
	}
	if len(b) != 0 {
		return s, fmt.Errorf("obs: trailing bytes in snapshot")
	}
	return s, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func takeString(b []byte) (string, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > 1<<16 || uint64(len(b)-n) < l {
		return "", b, fmt.Errorf("obs: bad string length")
	}
	return string(b[n : n+int(l)]), b[n+int(l):], nil
}
