package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"time"
)

// ContentType is the media type of binary update frames on HTTP.
const ContentType = "application/x-mapdr-frame"

// maxRecordsPerFrame caps the records per POSTed frame; batches are
// additionally chunked by encoded size (maxFrameFill) so a frame can
// never exceed MaxFrameBody whatever the id lengths.
const maxRecordsPerFrame = 4096

// maxFrameFill is the record-byte budget per body: MaxFrameBody minus
// headroom for the largest head a chunk of records travels under — a
// PeerOpHints request's op byte, two bounded names and the count varint,
// plus one spare byte that keeps chunk boundaries where they have always
// been (an update body's version byte and count need less).
const maxFrameFill = MaxFrameBody - (2 + 2*(2+MaxPeerNameLen) + binary.MaxVarintLen64)

// Default request policy for the HTTP transports and the member stream.
// Retrying an update frame is safe — replicas are idempotent per (id,
// Seq) — and queries are read-only, so every client retries transient
// failures.
const (
	// DefaultTimeout bounds one attempt (connect + response).
	DefaultTimeout = 10 * time.Second
	// DefaultRetries is how many re-attempts follow a transient failure.
	DefaultRetries = 2
	// DefaultBackoff scales the first retry delay; the window doubles per
	// attempt and the actual sleep is drawn uniformly from it (full
	// jitter).
	DefaultBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the retry-delay window however many attempts
	// have failed, so a long outage cannot grow sleeps without bound.
	DefaultMaxBackoff = 2 * time.Second
)

// IngestResponse is the JSON body a location server's /updates endpoint
// answers with.
type IngestResponse struct {
	// Records is the number of records decoded from the request.
	Records int `json:"records"`
	// Applied is how many were accepted for a registered object. Whether
	// each actually advanced the replica is the replica's seq-gated
	// decision (stale duplicates do not); the server's /stats
	// updates_applied counter reports that stricter number.
	Applied int `json:"applied"`
	// Errors counts records that could not be delivered at all (unknown
	// or rejected object, missing id).
	Errors int `json:"errors,omitempty"`
}

// retryPolicy is the shared request discipline of the HTTP clients and
// the member stream: per-attempt timeout, bounded retries with capped,
// fully jittered exponential backoff on transient failures (network
// errors, 5xx and 429), permanent failure on other status codes.
type retryPolicy struct {
	timeout    time.Duration
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration // <= 0 selects DefaultMaxBackoff
}

func defaultRetryPolicy() retryPolicy {
	return retryPolicy{timeout: DefaultTimeout, retries: DefaultRetries, backoff: DefaultBackoff}
}

// delay returns the sleep before re-attempt attempt (1-based): a full-
// jitter draw from [0, min(backoff << (attempt-1), maxBackoff)]. Full
// jitter decorrelates the retry schedules of a fleet of clients hit by
// the same outage — a deterministic doubling schedule re-synchronizes
// their retries into coordinated storms on the recovering server — and
// the cap keeps the window bounded however many attempts have failed
// (the shift saturates, so huge attempt counts cannot overflow).
func (p retryPolicy) delay(attempt int) time.Duration {
	ceil := p.backoff
	if ceil <= 0 {
		return 0
	}
	max := p.maxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	for i := 1; i < attempt && ceil < max; i++ {
		ceil <<= 1
		if ceil <= 0 { // shift overflow
			ceil = max
			break
		}
	}
	if ceil > max {
		ceil = max
	}
	return time.Duration(rand.Int64N(int64(ceil) + 1))
}

// retryable reports whether an HTTP status is worth another attempt.
func retryable(status int) bool {
	return status/100 == 5 || status == http.StatusTooManyRequests
}

// do runs attempt under the policy's retry discipline, returning the
// first successful attempt's data. attempt reports whether its failure
// is transient; onRetry is invoked before each re-attempt so callers
// can count retries.
func (p retryPolicy) do(attempt func() (data []byte, retry bool, err error), onRetry func()) ([]byte, error) {
	var lastErr error
	for n := 0; ; n++ {
		if n > 0 {
			if n > p.retries {
				return nil, lastErr
			}
			onRetry()
			time.Sleep(p.delay(n))
		}
		data, retry, err := attempt()
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retry {
			return nil, err
		}
	}
}

// post runs one bounded-time POST, returning the (2xx) response body.
// retry reports whether the failure is transient.
func (p retryPolicy) post(hc *http.Client, url, contentType string, body []byte) (data []byte, retry bool, err error) {
	ctx := context.Background()
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		// Network-level failures (refused, reset, timeout) are transient.
		return nil, true, fmt.Errorf("wire: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, retryable(resp.StatusCode),
			fmt.Errorf("wire: %s status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	data, err = io.ReadAll(io.LimitReader(resp.Body, MaxFrameBody+4+1))
	if err != nil {
		return nil, true, fmt.Errorf("wire: reading %s response: %w", url, err)
	}
	return data, false, nil
}

// Client is the HTTP transport: Send encodes batches into binary frames
// and POSTs them to a location server's /updates endpoint. Delivery is
// synchronous per call; Flush is a no-op. Safe for concurrent use —
// each Send encodes into its own buffer and the counters are atomic,
// so parallel senders overlap their round trips.
//
// Each POST is bounded by a per-attempt context timeout and retried
// with exponential backoff on transient failures (network errors, 5xx,
// 429); re-delivery is safe because replicas are idempotent per (id,
// Seq). Stats reports the error and retry counts.
type Client struct {
	url    string
	hc     *http.Client
	policy retryPolicy
	c      counters
}

// NewClient returns an HTTP transport posting to baseURL+"/updates"
// with the default timeout/retry policy. hc may be nil for
// http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		url:    strings.TrimSuffix(baseURL, "/") + "/updates",
		hc:     hc,
		policy: defaultRetryPolicy(),
	}
}

// SetRetry overrides the request policy: timeout bounds one attempt
// (0 disables the bound), retries is the number of re-attempts after a
// transient failure (0 fails fast), and backoff scales the retry-delay
// window, which doubles per attempt up to DefaultMaxBackoff; each sleep
// is a full-jitter draw from that window.
func (t *Client) SetRetry(timeout time.Duration, retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	t.policy = retryPolicy{timeout: timeout, retries: retries, backoff: backoff}
}

// Send implements Transport: the batch is chunked into frames of at
// most maxRecordsPerFrame records and maxFrameFill encoded bytes, each
// POSTed as one request.
func (t *Client) Send(_ float64, batch []Record) error {
	_, err := t.SendCounted(0, batch)
	return err
}

// SendCounted is Send plus the server's application-level accounting:
// it sums the IngestResponse applied counts across the POSTed chunks,
// so callers that must know whether every record was accepted (cluster
// rebalancing handoff) do not have to equate a 2xx with acceptance.
func (t *Client) SendCounted(_ float64, batch []Record) (applied int, err error) {
	return SendChunked(batch, t.post)
}

// SendChunked cuts batch, in order, into chunks of at most 4096 records
// whose encoding fits one frame under any record-carrying header (an
// update frame or a PeerOpHints request), and hands each chunk, with
// its encoded record size, to post, summing post's counts. The first
// failure stops it: the chunks after the failed one are never offered.
func SendChunked(batch []Record, post func(chunk []Record, size int) (int, error)) (applied int, err error) {
	for len(batch) > 0 {
		n, fill := 0, 0
		for n < len(batch) && n < maxRecordsPerFrame {
			size := RecordSize(batch[n])
			if n > 0 && fill+size > maxFrameFill {
				break
			}
			fill += size
			n++
		}
		a, err := post(batch[:n], fill)
		applied += a
		if err != nil {
			return applied, err
		}
		batch = batch[n:]
	}
	return applied, nil
}

// appendChunkBody appends the update body of one SendChunked chunk,
// refusing one that outgrew MaxFrameBody (a single huge record).
func appendChunkBody(dst []byte, chunk []Record) ([]byte, error) {
	start := len(dst)
	dst = appendFrameBody(dst, chunk)
	if body := len(dst) - start; body > MaxFrameBody {
		return nil, fmt.Errorf("wire: frame body %d exceeds %d bytes", body, MaxFrameBody)
	}
	return dst, nil
}

// ship sends one update frame carrying recs records of size encoded
// bytes through attempt under policy p, keeping the framed transports'
// counts, and returns the server's acknowledgement.
func (c *counters) ship(p retryPolicy, frame []byte, recs, size int, attempt func() ([]byte, bool, error)) ([]byte, error) {
	c.sent.Add(int64(recs))
	c.bytesSent.Add(int64(size))
	c.frames.Add(1)
	c.frameBytes.Add(int64(len(frame)))
	data, err := p.do(attempt, func() {
		c.retries.Add(1)
		c.frames.Add(1)
		c.frameBytes.Add(int64(len(frame)))
	})
	if err != nil {
		c.errors.Add(1)
		return nil, fmt.Errorf("wire: ingest: %w", err)
	}
	// Delivered counts records handed to the server — the same
	// transport-level semantics as the other transports' handed-to-sink
	// counting. Application-level acceptance (unknown objects, stale
	// seqs) is the server's business; its acknowledgement carries it for
	// SendCounted callers.
	c.delivered.Add(int64(recs))
	c.bytesDelivered.Add(int64(size))
	return data, nil
}

func (t *Client) post(chunk []Record, size int) (applied int, err error) {
	buf, err := appendChunkBody(make([]byte, 4, 4+16+size), chunk)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	data, err := t.c.ship(t.policy, buf, len(chunk), size, func() ([]byte, bool, error) {
		return t.policy.post(t.hc, t.url, ContentType, buf)
	})
	if err != nil {
		return 0, err
	}
	var resp IngestResponse
	if jerr := json.Unmarshal(data, &resp); jerr != nil {
		// A non-locserv sink may answer with a different body; treat the
		// chunk as applied rather than failing a successful POST.
		return len(chunk), nil
	}
	return resp.Applied, nil
}

// Flush implements Transport; HTTP delivery is synchronous.
func (t *Client) Flush(float64) error { return nil }

// Stats implements Transport.
func (t *Client) Stats() Stats { return t.c.snapshot() }

// ReadFrames reads r's run of length-prefixed frames to its end and
// hands each frame's records to each, enforcing the bounds of
// DecodeFrame. The records are valid only during the call to each: one
// pooled RecordBuffer decodes every frame. A clean end of r between
// frames ends the run with a nil error; a frame cut short or failing to
// decode stops it with an error, after each has seen the frames before.
func ReadFrames(r io.Reader, each func([]Record)) error {
	b := recordBuffers.Get().(*RecordBuffer)
	defer recordBuffers.Put(b)
	for {
		hdr := slices.Grow(b.raw[:0], 4)[:4]
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.ErrUnexpectedEOF {
				return fmt.Errorf("wire: truncated frame header")
			}
			if err == io.EOF { // clean end of stream
				return nil
			}
			return err
		}
		// Bound-check as u32 before the int conversion (32-bit safety).
		bodyLen32 := binary.LittleEndian.Uint32(hdr)
		if bodyLen32 > MaxFrameBody {
			return fmt.Errorf("wire: frame body %d exceeds %d bytes", bodyLen32, MaxFrameBody)
		}
		body := slices.Grow(hdr[:0], int(bodyLen32))[:bodyLen32]
		b.raw = body
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("wire: frame body truncated: %w", err)
		}
		recs, err := b.Decode(body)
		if err != nil {
			return err
		}
		each(recs)
	}
}
