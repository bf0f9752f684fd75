// Package core implements the dead-reckoning update protocols of the
// paper: the shared prediction functions (linear, map-based, map-based
// with turn probabilities, known-route), the source-side update triggers
// (deviation-based dead reckoning, distance/time/movement-based reporting,
// and the Wolfson sdr/adr/dtdr threshold controllers) and the server-side
// replica.
//
// The central invariant is that source and server evaluate the *same*
// pure prediction function over the *same* last report, so the source can
// locally decide when the server's view exceeds the accuracy bound u_s
// (paper §2, Fig. 1).
//
// There is one predictor contract, Predictor: every predictor evaluates
// the function (Predict), mints a prediction Cursor that memoizes the
// road-graph walk between reports (NewCursor), and states how fast its
// prediction can drift from the report (DisplacementBound). A Source
// evaluates through its cursor, as a Server does for every predictor
// but the closed-form ones; each keeps one cursor and re-aims it at
// every new report (Cursor.Reset) instead of minting another, so the
// cursor's walk state and turn scratch are reused and the per-sample
// deviation check and the replica's position answer allocate nothing.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
)

// Report is the object state o_r transmitted in an update message. For
// map-based operation it carries the corrected position, the current
// directed link and the offset on it; Link.IsValid()==false signals the
// linear fall-back (the "empty link" of paper §3).
type Report struct {
	Seq         uint32
	T           float64     // timestamp of the state
	Pos         geo.Point   // position (corrected position p_c when matched)
	V           float64     // speed, m/s
	Heading     float64     // travel heading, radians
	Link        roadmap.Dir // current link, or NoDir
	Offset      float64     // offset along travel direction on Link, m
	RouteOffset float64     // offset along a pre-known route (known-route DR)
	Omega       float64     // turn rate, rad/s (higher-order CTRV predictor)
}

// Finite reports whether every number the report carries is finite. A
// location store refuses other reports: one NaN or infinite field would
// leak into every answer that holds the object.
func (r Report) Finite() bool {
	for _, x := range [...]float64{r.T, r.Pos.X, r.Pos.Y, r.V, r.Heading, r.Offset, r.RouteOffset, r.Omega} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Reason states why an update was sent; it rides in the record header of
// the wire encoding (internal/wire) for server-side diagnostics.
type Reason uint8

// Update reasons.
const (
	ReasonNone      Reason = iota
	ReasonInit             // first report for the object
	ReasonDeviation        // predicted/actual deviation exceeded the bound
	ReasonLinkLost         // map matching lost the link (fall back to linear)
	ReasonRematch          // map matching reacquired a link
	ReasonPeriodic         // time-based reporting period elapsed
	ReasonMovement         // movement-based reporting distance exceeded
)

// Valid reports whether r is one of the defined reasons; wire decoders
// use it to reject corrupt record headers.
func (r Reason) Valid() bool { return r <= ReasonMovement }

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonInit:
		return "init"
	case ReasonDeviation:
		return "deviation"
	case ReasonLinkLost:
		return "link-lost"
	case ReasonRematch:
		return "rematch"
	case ReasonPeriodic:
		return "periodic"
	case ReasonMovement:
		return "movement"
	default:
		return "unknown"
	}
}

// Update is one protocol message from source to server.
type Update struct {
	Report Report
	Reason Reason
}

// Wire format: variable-length little-endian encoding. Every report pays
// for the fields all protocol families share; the map-bound fields are
// flags-gated so e.g. a linear-prediction update does not carry link,
// route or turn-rate bytes — update *and byte* cost now differentiate
// the protocol families (paper §4 counts messages; BytesPerH multiplies
// by this per-message size).
//
//	flags u8 | seq uvarint | t f64 | x f64 | y f64 | v f32 | heading f32 |
//	[link svarint | offset f32]   when flagLink
//	[routeOffset f32]             when flagRouteOffset
//	[omega f32]                   when flagOmega
//
// Position and timestamp stay f64: prediction is evaluated from them and
// the accuracy bound u_s can be single-digit metres over 100 km scales.
const (
	flagLink        = 1 << 0 // Link/Offset present (map-based families)
	flagLinkForward = 1 << 1 // direction of travel on Link
	flagRouteOffset = 1 << 2 // RouteOffset present (known-route DR)
	flagOmega       = 1 << 3 // Omega present (CTRV prediction)

	flagsKnown = flagLink | flagLinkForward | flagRouteOffset | flagOmega
)

// reportFixedSize is the portion every report pays: flags, t, x, y, v,
// heading. The sequence number adds 1-5 varint bytes on top.
const reportFixedSize = 1 + 8 + 8 + 8 + 4 + 4

// MinEncodedSize is the smallest possible encoded report (no optional
// fields, single-byte sequence number). Decoders use it to bound how
// many records a claimed batch count can possibly hold.
const MinEncodedSize = reportFixedSize + 1

// UvarintLen returns the encoded length of v in base-128 varint bytes
// (shared by the frame codec in internal/wire).
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodedSize returns the exact wire size of the report in bytes.
func (r Report) EncodedSize() int {
	n := reportFixedSize + UvarintLen(uint64(r.Seq))
	if r.Link.IsValid() {
		// Link ids use the zig-zag signed varint so reserved/negative ids
		// survive a round trip.
		n += UvarintLen(uint64(int64(r.Link.Link))<<1^uint64(int64(r.Link.Link)>>63)) + 4
	}
	if r.RouteOffset != 0 {
		n += 4
	}
	if r.Omega != 0 {
		n += 4
	}
	return n
}

// AppendBinary appends the wire encoding of r to dst and returns the
// extended slice.
func (r Report) AppendBinary(dst []byte) []byte {
	var flags byte
	if r.Link.IsValid() {
		flags |= flagLink
		if r.Link.Forward {
			flags |= flagLinkForward
		}
	}
	if r.RouteOffset != 0 {
		flags |= flagRouteOffset
	}
	if r.Omega != 0 {
		flags |= flagOmega
	}
	le := binary.LittleEndian
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(r.Seq))
	dst = le.AppendUint64(dst, math.Float64bits(r.T))
	dst = le.AppendUint64(dst, math.Float64bits(r.Pos.X))
	dst = le.AppendUint64(dst, math.Float64bits(r.Pos.Y))
	dst = le.AppendUint32(dst, math.Float32bits(float32(r.V)))
	dst = le.AppendUint32(dst, math.Float32bits(float32(r.Heading)))
	if flags&flagLink != 0 {
		dst = binary.AppendVarint(dst, int64(r.Link.Link))
		dst = le.AppendUint32(dst, math.Float32bits(float32(r.Offset)))
	}
	if flags&flagRouteOffset != 0 {
		dst = le.AppendUint32(dst, math.Float32bits(float32(r.RouteOffset)))
	}
	if flags&flagOmega != 0 {
		dst = le.AppendUint32(dst, math.Float32bits(float32(r.Omega)))
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r Report) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.EncodedSize())), nil
}

// DecodeReport decodes one report from the front of data and returns the
// number of bytes consumed. The encoding is self-delimiting, so data may
// hold trailing bytes (the next record of a frame). Corrupt or truncated
// input returns an error; the decoder never panics and never allocates
// beyond the fixed Report value.
func DecodeReport(data []byte) (r Report, n int, err error) {
	if len(data) == 0 {
		return Report{}, 0, fmt.Errorf("core: empty report")
	}
	flags := data[0]
	if flags&^byte(flagsKnown) != 0 {
		return Report{}, 0, fmt.Errorf("core: unknown report flags %#x", flags)
	}
	if flags&flagLinkForward != 0 && flags&flagLink == 0 {
		return Report{}, 0, fmt.Errorf("core: direction flag without link")
	}
	n = 1
	seq, k := binary.Uvarint(data[n:])
	if k <= 0 || seq > math.MaxUint32 {
		return Report{}, 0, fmt.Errorf("core: bad sequence varint")
	}
	n += k
	r.Seq = uint32(seq)
	le := binary.LittleEndian
	if len(data)-n < 8+8+8+4+4 {
		return Report{}, 0, fmt.Errorf("core: truncated report (%d bytes)", len(data))
	}
	r.T = math.Float64frombits(le.Uint64(data[n:]))
	r.Pos.X = math.Float64frombits(le.Uint64(data[n+8:]))
	r.Pos.Y = math.Float64frombits(le.Uint64(data[n+16:]))
	r.V = float64(math.Float32frombits(le.Uint32(data[n+24:])))
	r.Heading = float64(math.Float32frombits(le.Uint32(data[n+28:])))
	n += 32
	r.Link = roadmap.NoDir
	if flags&flagLink != 0 {
		link, k := binary.Varint(data[n:])
		if k <= 0 || link < math.MinInt32 || link > math.MaxInt32 {
			return Report{}, 0, fmt.Errorf("core: bad link varint")
		}
		n += k
		r.Link = roadmap.Dir{Link: roadmap.LinkID(link), Forward: flags&flagLinkForward != 0}
		if !r.Link.IsValid() {
			return Report{}, 0, fmt.Errorf("core: link flag carries the no-link sentinel")
		}
		if len(data)-n < 4 {
			return Report{}, 0, fmt.Errorf("core: truncated link offset")
		}
		r.Offset = float64(math.Float32frombits(le.Uint32(data[n:])))
		n += 4
	}
	if flags&flagRouteOffset != 0 {
		if len(data)-n < 4 {
			return Report{}, 0, fmt.Errorf("core: truncated route offset")
		}
		r.RouteOffset = float64(math.Float32frombits(le.Uint32(data[n:])))
		n += 4
	}
	if flags&flagOmega != 0 {
		if len(data)-n < 4 {
			return Report{}, 0, fmt.Errorf("core: truncated omega")
		}
		r.Omega = float64(math.Float32frombits(le.Uint32(data[n:])))
		n += 4
	}
	return r, n, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; data must hold
// exactly one encoded report.
func (r *Report) UnmarshalBinary(data []byte) error {
	dec, n, err := DecodeReport(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("core: %d trailing bytes after report", len(data)-n)
	}
	*r = dec
	return nil
}
