package wire

import (
	"sort"
	"strings"
	"sync"
)

// HintBuffer buffers update records destined for an unreachable replica
// until it recovers — the storage half of hinted handoff. Because a
// replica's state is only its latest report (Apply is gated on Seq),
// the buffer coalesces on arrival: it keeps exactly one record per
// object id, the one with the highest sequence number, so a long outage
// costs one record per object rather than the whole missed stream.
//
// Capacity bounds the number of distinct buffered objects; hints for
// new objects beyond it are dropped (and counted) rather than growing
// without limit while a member stays down. Records handed back by a
// failed replay re-enter through Readd, which is capacity-exempt: a
// drained record may be the only surviving copy of its object, so the
// re-buffer must never lose it to a buffer that refilled mid-drain.
//
// The buffer also keeps deadline accounting: Since is the transport
// clock at which the oldest currently-buffered hint was first added
// (AddAt), surviving drain/Readd round trips, so a coordinator can
// demote a member whose hints have waited past a deadline. HintBuffer
// is safe for concurrent use.
type HintBuffer struct {
	mu   sync.Mutex
	byID map[string]Record
	cap  int

	since      float64 // clock of the oldest buffered hint (valid when hasSince)
	hasSince   bool
	drainSince float64 // since at the moment of the last Drain, for Readd
	hadSince   bool

	hinted    int64 // records offered to AddAt
	coalesced int64 // records superseded by a fresher hint for the same id
	dropped   int64 // records rejected because the buffer was full
	drained   int64 // records handed back by Drain and not re-buffered
	requeued  int64 // drained records re-buffered after a failed replay
}

// HintStats is a snapshot of a hint buffer's counters.
type HintStats struct {
	// Buffered is the current number of distinct hinted objects.
	Buffered int
	// Hinted counts records offered, Coalesced the ones superseded by a
	// fresher hint for the same object, Dropped the ones rejected at
	// capacity, Drained the records handed back for delivery (net of
	// re-buffers), and Requeued the drained records put back by Readd
	// after a failed replay.
	Hinted, Coalesced, Dropped, Drained, Requeued int64
	// Since is the transport clock when the oldest currently-buffered
	// hint was first added; valid only when HasSince is true (the
	// buffer is non-empty).
	Since    float64
	HasSince bool
}

// DefaultHintCapacity bounds a hint buffer's distinct objects when the
// caller passes no explicit capacity.
const DefaultHintCapacity = 1 << 16

// NewHintBuffer returns an empty buffer holding at most capacity
// distinct objects (<= 0 selects DefaultHintCapacity).
func NewHintBuffer(capacity int) *HintBuffer {
	if capacity <= 0 {
		capacity = DefaultHintCapacity
	}
	return &HintBuffer{byID: make(map[string]Record), cap: capacity}
}

// AddAt buffers recs, keeping per object only the record with the
// highest Seq, and returns how many records were newly buffered or
// replaced a staler hint. If the buffer was empty, now becomes Since —
// the deadline clock a coordinator reads to decide when a member has
// been hinted-at for too long. A buffered record's id is cloned: recs
// may be decoded records whose ids share one string with their whole
// frame, which a hint must not pin.
func (h *HintBuffer) AddAt(now float64, recs []Record) (buffered int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range recs {
		h.hinted++
		prev, ok := h.byID[recs[i].ID]
		switch {
		case ok && recs[i].Update.Report.Seq <= prev.Update.Report.Seq:
			// The buffer already holds something at least as fresh.
			h.coalesced++
		case ok:
			h.coalesced++
			h.byID[prev.ID] = Record{ID: prev.ID, Update: recs[i].Update}
			buffered++
		case len(h.byID) >= h.cap:
			h.dropped++
		default:
			id := strings.Clone(recs[i].ID)
			h.byID[id] = Record{ID: id, Update: recs[i].Update}
			buffered++
		}
	}
	if len(h.byID) > 0 && !h.hasSince {
		h.since, h.hasSince = now, true
	}
	return buffered
}

// Readd re-buffers records a Drain handed out but a failed replay could
// not deliver. Unlike AddAt it is capacity-exempt — a drained record may
// be the last copy of its object anywhere, so it must never be dropped
// because the buffer refilled while the replay was in flight — and it
// does not count toward Hinted (the records were already counted on
// their way in). The Drained counter is decremented instead: the drain
// did not stick. Records superseded by a fresher hint that arrived
// since the Drain are discarded (the fresher hint wins as everywhere
// else). The pre-drain Since is restored so a failed replay does not
// reset the member's hint deadline.
func (h *HintBuffer) Readd(recs []Record) (buffered int) {
	if len(recs) == 0 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range recs {
		h.requeued++
		h.drained--
		if prev, ok := h.byID[recs[i].ID]; ok && recs[i].Update.Report.Seq <= prev.Update.Report.Seq {
			continue
		}
		h.byID[recs[i].ID] = recs[i]
		buffered++
	}
	if len(h.byID) > 0 && h.hadSince && (!h.hasSince || h.drainSince < h.since) {
		h.since, h.hasSince = h.drainSince, true
	}
	return buffered
}

// Drain removes and returns every buffered record, sorted by object id
// so delivery is deterministic. Delivering drained records to a
// recovered replica is always safe: Apply is idempotent per (id, Seq),
// so anything the replica learned in the meantime wins. If the replay
// fails, hand the records back through Readd.
func (h *HintBuffer) Drain() []Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.byID) == 0 {
		return nil
	}
	out := make([]Record, 0, len(h.byID))
	for _, rec := range h.byID {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	h.drained += int64(len(out))
	h.byID = make(map[string]Record)
	h.drainSince, h.hadSince = h.since, h.hasSince
	h.hasSince = false
	return out
}

// Len returns the number of distinct buffered objects.
func (h *HintBuffer) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.byID)
}

// Stats returns the buffer's counters so far.
func (h *HintBuffer) Stats() HintStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HintStats{
		Buffered:  len(h.byID),
		Hinted:    h.hinted,
		Coalesced: h.coalesced,
		Dropped:   h.dropped,
		Drained:   h.drained,
		Requeued:  h.requeued,
		Since:     h.since,
		HasSince:  h.hasSince,
	}
}
