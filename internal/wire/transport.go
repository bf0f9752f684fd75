package wire

import (
	"sync/atomic"

	"mapdr/internal/netsim"
)

// Sink is the server side of a transport: it receives delivered record
// batches. internal/locserv's Service.Sink adapts the sharded location
// store; sim adapts a single core.Server.
type Sink interface {
	Deliver(batch []Record) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func([]Record) error

// Deliver implements Sink.
func (f SinkFunc) Deliver(batch []Record) error { return f(batch) }

// Transport carries update batches from protocol sources toward a Sink.
// now is simulation time in seconds; synchronous transports ignore it.
type Transport interface {
	// Send offers a batch stamped with time now. Depending on the
	// implementation the batch is delivered immediately (Loopback, the
	// HTTP Client, the member Stream) or held in flight until Flush
	// (SimLink).
	Send(now float64, batch []Record) error
	// Flush delivers everything due at or before now; a no-op for
	// synchronous transports.
	Flush(now float64) error
	// Stats returns the transport's traffic counters so far.
	Stats() Stats
}

// Stats counts a transport's traffic. Bytes are encoded record sizes
// (what the messages cost on the wire, excluding per-frame framing);
// the framed transports (HTTP client, member stream) additionally count
// full frame bytes in FrameBytes.
type Stats struct {
	// Sent counts records offered to Send, Delivered the records handed
	// to the sink (for the framed transports: acknowledged by the
	// server), Dropped the records lost in between (lossy links). Whether
	// the application behind the sink accepts each record is not the
	// transport's business — see the server's own counters for that.
	Sent, Delivered, Dropped int64
	// BytesSent and BytesDelivered are the encoded sizes of those
	// records.
	BytesSent, BytesDelivered int64
	// Frames and FrameBytes count transmitted frames (HTTP requests or
	// stream frames, including retried ones); zero for unframed
	// transports.
	Frames, FrameBytes int64
	// Errors counts Sends that ultimately failed and Retries the extra
	// attempts made before success or giving up (the framed transports'
	// timeout/backoff policy); zero for in-process transports.
	Errors, Retries int64
}

// counters is the atomic backing store shared by the implementations.
type counters struct {
	sent, delivered, dropped  atomic.Int64
	bytesSent, bytesDelivered atomic.Int64
	frames, frameBytes        atomic.Int64
	errors, retries           atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Sent:           c.sent.Load(),
		Delivered:      c.delivered.Load(),
		Dropped:        c.dropped.Load(),
		BytesSent:      c.bytesSent.Load(),
		BytesDelivered: c.bytesDelivered.Load(),
		Frames:         c.frames.Load(),
		FrameBytes:     c.frameBytes.Load(),
		Errors:         c.errors.Load(),
		Retries:        c.retries.Load(),
	}
}

// Loopback is the in-process transport: Send hands the batch to the
// sink synchronously, so results are bit-identical to applying the
// updates directly — while the encoded byte cost is still accounted.
type Loopback struct {
	sink Sink
	c    counters
}

// NewLoopback returns an in-process transport delivering to sink.
func NewLoopback(sink Sink) *Loopback { return &Loopback{sink: sink} }

// Send implements Transport.
func (t *Loopback) Send(_ float64, batch []Record) error {
	if len(batch) == 0 {
		return nil
	}
	n := int64(len(batch))
	b := int64(BatchSize(batch))
	t.c.sent.Add(n)
	t.c.bytesSent.Add(b)
	t.c.delivered.Add(n)
	t.c.bytesDelivered.Add(b)
	return t.sink.Deliver(batch)
}

// Flush implements Transport; Loopback delivery is synchronous.
func (t *Loopback) Flush(float64) error { return nil }

// Stats implements Transport.
func (t *Loopback) Stats() Stats { return t.c.snapshot() }

// SimLink carries records through internal/netsim's link model:
// latency, jitter, random loss and disconnection windows. Each record
// travels as one link message whose size is its real encoded size, but
// the payload is the Record value itself — simulation results stay
// bit-exact (no float32 codec rounding) while the byte accounting
// reflects the wire encoding.
type SimLink struct {
	link *netsim.Link
	sink Sink
	c    counters
}

// NewSimLink returns a transport over link delivering to sink. The
// caller keeps ownership of link (for disconnection windows, counters).
func NewSimLink(link *netsim.Link, sink Sink) *SimLink {
	return &SimLink{link: link, sink: sink}
}

// Send implements Transport: each record is offered to the link
// individually, so loss strikes per message exactly as in the paper's
// disconnection experiments.
func (t *SimLink) Send(now float64, batch []Record) error {
	for i := range batch {
		size := RecordSize(batch[i])
		t.c.sent.Add(1)
		t.c.bytesSent.Add(int64(size))
		if !t.link.Send(now, size, batch[i]) {
			t.c.dropped.Add(1)
		}
	}
	return nil
}

// Flush implements Transport: messages due at or before now are popped
// from the link in delivery order and handed to the sink as one batch.
func (t *SimLink) Flush(now float64) error {
	msgs := t.link.Deliverable(now)
	if len(msgs) == 0 {
		return nil
	}
	batch := make([]Record, 0, len(msgs))
	var bytes int64
	for _, m := range msgs {
		batch = append(batch, m.Payload.(Record))
		bytes += int64(m.Size)
	}
	t.c.delivered.Add(int64(len(batch)))
	t.c.bytesDelivered.Add(bytes)
	return t.sink.Deliver(batch)
}

// Stats implements Transport.
func (t *SimLink) Stats() Stats { return t.c.snapshot() }

// Pending returns the number of records still in flight.
func (t *SimLink) Pending() int { return t.link.Pending() }
