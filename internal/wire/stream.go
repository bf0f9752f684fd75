package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the member stream: every call inside a cluster. Instead
// of one HTTP request per call, a coordinator keeps one long-lived
// connection per member node and per peer coordinator, opened by an
// HTTP/1.1 Upgrade (GET StreamPath, Upgrade: StreamProtocol) on the
// callee's ordinary address, and multiplexes every query, admin call,
// update batch and peer exchange over it:
//
//	sframe := len u32 | id u64 | kind u8 | payload     (9 <= len <= maxStreamFrame)
//
// len counts the bytes after itself. A StreamQuery payload is one
// query-request frame (query.go) and its answer one query-response
// frame; a StreamUpdate payload is one update frame (wire.go) and its
// answer the node's applied count as a uvarint; a StreamPeer payload is
// one peer-request frame (memlog.go) and its answer one peer-response
// frame. Nodes serve the first two kinds, coordinators the third. The
// id is the caller's: the callee answers each request under its id in
// whatever order its workers finish, and the caller hands every answer
// to the goroutine waiting on that id, so a slow request never delays
// the next one.
//
// Both ends enforce every bound the frame decoders enforce: a length
// outside the limits, an unknown kind or one the callee does not serve,
// a payload cut short or one whose own framing does not fill it exactly
// is a protocol error, and the connection is closed. Calls keep the
// HTTP clients' retry policy: each attempt is bounded by the
// per-attempt timeout, a connection failure fails every call pending on
// it with a transient error, and the next attempt redials.
//
// NewStreamLoopback is the same stream without a connection: each
// request frame goes straight to the callee's answering code and the
// answer through the caller's checks, synchronously.

const (
	// StreamProtocol is the Upgrade token of the member stream.
	StreamProtocol = "mapdr-member/1"
	// StreamPath is the node endpoint the upgrade is requested on.
	StreamPath = "/member"
)

// Stream frame kinds; an answer carries its request's kind.
const (
	// StreamQuery carries one query-request frame; the answer is one
	// query-response frame.
	StreamQuery byte = 1
	// StreamUpdate carries one update frame; the answer is the node's
	// applied count as a uvarint.
	StreamUpdate byte = 2
	// StreamPeer carries one peer-request frame; the answer is one
	// peer-response frame.
	StreamPeer byte = 3
)

const (
	// streamHeader is the fixed part of a stream frame.
	streamHeader = 4 + 8 + 1
	// maxStreamFrame bounds a frame's len field: id and kind plus one
	// length-prefixed update or query frame.
	maxStreamFrame = 8 + 1 + 4 + MaxFrameBody
	// streamChunk is how far a payload buffer grows ahead of the bytes
	// actually received, so a lying length cannot make a reader allocate
	// for data that never arrives.
	streamChunk = 64 << 10
	// streamReadBuffer sizes each end's buffered reader.
	streamReadBuffer = 32 << 10
)

// appendStreamHeader appends a frame header; finishStreamFrame patches
// its length once the payload follows it.
func appendStreamHeader(dst []byte, id uint64, kind byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, kind)
}

// finishStreamFrame patches the length of the frame starting at start.
func finishStreamFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// readStreamFrame reads one stream frame from r. It returns io.EOF at a
// clean end of stream and an error for a truncated frame, a length out
// of bounds or an unknown kind; the payload's own framing is checked by
// whoever decodes it.
func readStreamFrame(r *bufio.Reader) (id uint64, kind byte, payload []byte, err error) {
	hdr, err := r.Peek(streamHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = errors.New("wire: truncated stream frame header")
		}
		return 0, 0, nil, err
	}
	r.Discard(streamHeader) // cannot fail: the bytes are buffered
	id, kind, size, err := parseStreamHeader(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	payload = make([]byte, 0, min(size, streamChunk))
	for len(payload) < size {
		k := min(size-len(payload), streamChunk)
		payload = slices.Grow(payload, k)
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+k]); err != nil {
			return 0, 0, nil, fmt.Errorf("wire: stream frame truncated (%d of %d payload bytes): %w", len(payload), size, err)
		}
		payload = payload[:len(payload)+k]
	}
	return id, kind, payload, nil
}

// parseStreamHeader checks a frame header's length bound and kind and
// returns the payload size it announces.
func parseStreamHeader(hdr []byte) (id uint64, kind byte, size int, err error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < streamHeader-4 || n > maxStreamFrame {
		return 0, 0, 0, fmt.Errorf("wire: stream frame length %d outside [%d, %d]", n, streamHeader-4, maxStreamFrame)
	}
	id, kind = binary.LittleEndian.Uint64(hdr[4:]), hdr[12]
	if kind < StreamQuery || kind > StreamPeer {
		return 0, 0, 0, fmt.Errorf("wire: unknown stream frame kind %d", kind)
	}
	return id, kind, int(n) - (streamHeader - 4), nil
}

// checkAnswer enforces an answer payload's own framing: a query or peer
// answer is exactly one length-prefixed frame, an update ack exactly one
// uvarint.
func checkAnswer(kind byte, payload []byte) error {
	if kind == StreamUpdate {
		if _, n := binary.Uvarint(payload); n <= 0 || n != len(payload) {
			return errors.New("wire: malformed update ack")
		}
		return nil
	}
	_, n, err := queryFrameBody(payload)
	return whole(n, payload, "an answer", err)
}

// whole extends a payload decoder's err: a frame that decoded but did
// not fill its payload exactly is an error too.
func whole(n int, payload []byte, what string, err error) error {
	if err == nil && n != len(payload) {
		err = fmt.Errorf("wire: %d trailing bytes after %s", len(payload)-n, what)
	}
	return err
}

// Stream is the calling end of the member stream: a QueryTransport, a
// Transport and a PeerTransport to one node or peer coordinator over
// one multiplexed connection, dialed on the first call and redialed by
// the first call after a failure. Any number of goroutines may call it
// at once: each writes its request whole under one write lock and waits
// for the answer carrying its id.
//
// Failures are the HTTP clients' (see DefaultTimeout, DefaultRetries):
// a connection error, an attempt outliving the per-attempt timeout or a
// protocol error drops the connection and fails every call pending on
// it with a transient error, which the retry policy re-attempts on a
// fresh connection. A callee refusing the upgrade fails the call like an
// HTTP status would: 5xx and 429 are retried, anything else is not.
type Stream struct {
	base   string
	local  *StreamServer // the in-process callee (NewStreamLoopback); nil: dial base
	policy retryPolicy
	c      counters // update traffic (Transport)
	ids    atomic.Uint64

	mu  sync.Mutex
	cur *streamConn // the connection calls go to; nil or failed: dial anew
}

// NewStream returns a member stream to the node or coordinator at
// baseURL (an http:// address; the upgrade is requested on
// baseURL+StreamPath) with the default timeout/retry policy. Nothing is
// dialed until the first call.
func NewStream(baseURL string) *Stream {
	return &Stream{base: strings.TrimSuffix(baseURL, "/"), policy: defaultRetryPolicy()}
}

// NewStreamLoopback returns the member stream to srv in process: every
// call encodes its frame, srv answers it as a served connection would,
// and the answer passes the checks an answer read off a socket passes.
// There is no connection, goroutine or timer, so a failure is permanent
// and never retried.
func NewStreamLoopback(srv StreamServer) *Stream {
	return &Stream{local: &srv, policy: defaultRetryPolicy()}
}

// SetRetry overrides the request policy (see Client.SetRetry); the
// timeout also bounds dialing.
func (s *Stream) SetRetry(timeout time.Duration, retries int, backoff time.Duration) {
	s.policy = retryPolicy{timeout: timeout, retries: max(retries, 0), backoff: backoff}
}

// Query implements QueryTransport. A traced request (req.Trace != 0)
// additionally times its own encode, round trip and decode stages and
// prepends them to the node's spans, so the caller sees the full
// per-hop decomposition; the untraced path takes no timestamps.
func (s *Stream) Query(req QueryRequest) (QueryResponse, error) {
	traced := req.Trace != 0
	var t0, t1, t2, t3 time.Time
	if traced {
		t0 = time.Now()
	}
	if err := checkQueryRequest(req); err != nil {
		return QueryResponse{}, err
	}
	frame := appendStreamHeader(make([]byte, 0, streamHeader+64+len(req.ID)+len(req.After)), 0, StreamQuery)
	frame = finishStreamFrame(AppendQueryRequest(frame, req), 0)
	if traced {
		t1 = time.Now()
	}
	data, err := s.policy.do(func() ([]byte, bool, error) { return s.exchange(frame) }, func() {})
	if err != nil {
		return QueryResponse{}, fmt.Errorf("wire: query: %w", err)
	}
	if traced {
		t2 = time.Now()
	}
	resp, _, err := DecodeQueryResponse(data)
	if err != nil {
		return QueryResponse{}, err
	}
	if traced {
		t3 = time.Now()
		local := []Span{
			{Stage: StageEncodeReq, Start: 0, Dur: uint64(t1.Sub(t0))},
			{Stage: StageRTT, Start: uint64(t1.Sub(t0)), Dur: uint64(t2.Sub(t1))},
			{Stage: StageDecodeResp, Start: uint64(t2.Sub(t0)), Dur: uint64(t3.Sub(t2))},
		}
		resp.Spans = append(local, resp.Spans...)
	}
	return resp, nil
}

// Send implements Transport.
func (s *Stream) Send(now float64, batch []Record) error {
	_, err := s.SendCounted(now, batch)
	return err
}

// SendCounted is Send plus the node's applied count, summed over the
// update frames the batch was chunked into (the same bounds as the HTTP
// Client's).
func (s *Stream) SendCounted(_ float64, batch []Record) (applied int, err error) {
	return SendChunked(batch, s.deliver)
}

func (s *Stream) deliver(chunk []Record, size int) (int, error) {
	frame, err := appendChunkFrame(appendStreamHeader(make([]byte, 0, streamHeader+4+16+size), 0, StreamUpdate), chunk)
	if err != nil {
		return 0, err
	}
	frame = finishStreamFrame(frame, 0)
	data, err := s.c.ship(s.policy, frame, len(chunk), size, func() ([]byte, bool, error) { return s.exchange(frame) })
	if err != nil {
		return 0, err
	}
	applied, _ := binary.Uvarint(data) // checkAnswer validated the ack
	return int(min(applied, uint64(len(chunk)))), nil
}

// Peer implements PeerTransport.
func (s *Stream) Peer(req PeerRequest) (PeerResponse, error) {
	body, err := EncodePeerRequest(req)
	if err != nil {
		return PeerResponse{}, err
	}
	frame := appendStreamHeader(make([]byte, 0, streamHeader+len(body)), 0, StreamPeer)
	frame = finishStreamFrame(append(frame, body...), 0)
	data, err := s.policy.do(func() ([]byte, bool, error) { return s.exchange(frame) }, func() {})
	if err != nil {
		return PeerResponse{}, fmt.Errorf("wire: peer: %w", err)
	}
	resp, _, err := DecodePeerResponse(data)
	return resp, err
}

// Flush implements Transport; stream delivery is synchronous.
func (s *Stream) Flush(float64) error { return nil }

// Stats implements Transport: the update traffic.
func (s *Stream) Stats() Stats { return s.c.snapshot() }

// errStreamClosed fails the calls pending on a connection Close dropped.
var errStreamClosed = errors.New("wire: member stream closed")

// Close drops the member connection, failing every call waiting on it.
// The stream stays usable — a later call dials afresh — so a member
// handle that leaves a cluster and rejoins keeps working, while a
// member nobody calls any more holds no connection and no goroutine.
func (s *Stream) Close() error {
	s.mu.Lock()
	sc := s.cur
	s.cur = nil
	s.mu.Unlock()
	if sc != nil {
		sc.fail(errStreamClosed)
	}
	return nil
}

// session returns the connection calls go to, starting a dial when
// there is none or the last one failed.
func (s *Stream) session() *streamConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil || s.cur.failure() != nil {
		s.cur = &streamConn{
			ready:   make(chan struct{}),
			dead:    make(chan struct{}),
			wsem:    make(chan struct{}, 1),
			pending: make(map[uint64]chan streamAnswer),
		}
		go s.cur.run(s.base, s.policy.timeout)
	}
	return s.cur
}

// exchange runs one attempt: frame goes out under a fresh id on the
// current connection and the answer's payload comes back. The attempt's
// timeout fails the whole connection — a node or path that cannot
// answer in time is redialed, not waited on — which also ends a write
// blocked on a peer that stopped reading. Everything but a refused
// upgrade with a non-retryable status is transient.
func (s *Stream) exchange(frame []byte) ([]byte, bool, error) {
	if s.local != nil {
		data, err := s.answerLocal(frame)
		return data, false, err
	}
	sc := s.session()
	if s.policy.timeout > 0 {
		timer := time.AfterFunc(s.policy.timeout, func() {
			sc.fail(fmt.Errorf("wire: member stream to %s: no answer within %v: %w", s.base, s.policy.timeout, os.ErrDeadlineExceeded))
		})
		defer timer.Stop()
	}
	select { // dialing is bounded by the same timeout
	case <-sc.ready:
	case <-sc.dead:
	}
	if err := sc.failure(); err != nil {
		var refused *refusedError
		return nil, !errors.As(err, &refused) || retryable(refused.status), err
	}
	id := s.ids.Add(1)
	binary.LittleEndian.PutUint64(frame[4:], id)
	answer, err := sc.register(id)
	if err != nil {
		return nil, true, err
	}
	select {
	case sc.wsem <- struct{}{}:
	case <-sc.dead:
		return nil, true, sc.failure()
	}
	_, err = sc.nc.Write(frame)
	<-sc.wsem
	if err != nil {
		sc.fail(fmt.Errorf("wire: member stream to %s: %w", s.base, err))
		return nil, true, sc.failure()
	}
	a := <-answer // fail answers every pending call
	if a.err != nil {
		return nil, true, a.err
	}
	if a.kind != frame[12] {
		err := fmt.Errorf("wire: member stream to %s answered kind %d to kind %d", s.base, a.kind, frame[12])
		sc.fail(err)
		return nil, true, err
	}
	return a.payload, false, nil
}

// answerLocal is exchange against the in-process callee: the request
// frame is answered as serveStream answers it, and the answer frame is
// held to what run and exchange demand of one read off the connection.
func (s *Stream) answerLocal(frame []byte) ([]byte, error) {
	id, kind := s.ids.Add(1), frame[12]
	binary.LittleEndian.PutUint64(frame[4:], id)
	out, err := answerStream(nil, streamJob{id, kind, frame[streamHeader:]}, *s.local)
	if err != nil {
		return nil, err
	}
	aid, akind, size, err := parseStreamHeader(out)
	payload := out[streamHeader:]
	switch {
	case err != nil:
	case size != len(payload):
		err = fmt.Errorf("wire: in-process answer announces %d payload bytes, carries %d", size, len(payload))
	case aid != id || akind != kind:
		err = fmt.Errorf("wire: in-process answer %d (kind %d) to request %d (kind %d)", aid, akind, id, kind)
	default:
		err = checkAnswer(akind, payload)
	}
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// streamConn is one connection of a Stream. Its run goroutine dials,
// then reads answers until the connection fails; fail is the one way a
// connection ends, and it fails every pending call.
type streamConn struct {
	ready chan struct{} // closed once dialing finished (nc set, or failed)
	dead  chan struct{} // closed by fail
	wsem  chan struct{} // the write lock, as a semaphore a caller stops waiting for once dead
	nc    net.Conn      // set under mu before ready closes

	mu      sync.Mutex
	pending map[uint64]chan streamAnswer
	err     error
}

type streamAnswer struct {
	kind    byte
	payload []byte
	err     error
}

// failure returns why the connection failed, nil while it is usable.
func (sc *streamConn) failure() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}

// register files a pending call under id; its answer, or the
// connection's failure, arrives on the returned channel.
func (sc *streamConn) register(id uint64) (chan streamAnswer, error) {
	ch := make(chan streamAnswer, 1)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return nil, sc.err
	}
	sc.pending[id] = ch
	return ch, nil
}

// fail ends the connection on its first failure: the socket is closed
// (which stops run) and every pending call gets err.
func (sc *streamConn) fail(err error) {
	sc.mu.Lock()
	if sc.err != nil {
		sc.mu.Unlock()
		return
	}
	sc.err = err
	nc, pending := sc.nc, sc.pending
	sc.pending = nil
	sc.mu.Unlock()
	close(sc.dead)
	if nc != nil {
		nc.Close()
	}
	for _, ch := range pending {
		ch <- streamAnswer{err: err}
	}
}

// run dials and upgrades the connection, then hands each answer to the
// call waiting on its id until a read or protocol error fails it.
func (sc *streamConn) run(base string, timeout time.Duration) {
	nc, br, err := dialStream(base, timeout)
	if err != nil {
		sc.fail(err)
		close(sc.ready)
		return
	}
	sc.mu.Lock()
	sc.nc = nc
	closed := sc.err != nil // Close or a timeout raced the dial
	sc.mu.Unlock()
	close(sc.ready)
	if closed {
		nc.Close()
		return
	}
	for {
		id, kind, payload, err := readStreamFrame(br)
		if err == nil {
			err = checkAnswer(kind, payload)
		}
		if err != nil {
			sc.fail(fmt.Errorf("wire: member stream to %s: %w", base, err))
			return
		}
		sc.mu.Lock()
		ch := sc.pending[id]
		delete(sc.pending, id)
		sc.mu.Unlock()
		if ch != nil {
			ch <- streamAnswer{kind: kind, payload: payload}
		}
	}
}

// refusedError is a node answering the upgrade request with an HTTP
// status instead of switching protocols.
type refusedError struct {
	url    string
	status int
	msg    string
}

func (e *refusedError) Error() string {
	return fmt.Sprintf("wire: %s refused the member stream: status %d: %s", e.url, e.status, e.msg)
}

// dialStream connects to the node at base and upgrades the connection,
// all within timeout (0: unbounded). The returned reader holds whatever
// the node sent after its 101 response.
func dialStream(base string, timeout time.Duration) (net.Conn, *bufio.Reader, error) {
	req, err := http.NewRequest(http.MethodGet, base+StreamPath, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: member stream: %w", err)
	}
	if req.URL.Scheme != "http" {
		return nil, nil, fmt.Errorf("wire: member stream needs an http:// address, got %q", base)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: member stream: %w", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", StreamProtocol)
	br := bufio.NewReaderSize(nc, streamReadBuffer)
	err = nc.SetDeadline(deadline)
	if err == nil {
		err = req.Write(nc)
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(br, req)
	}
	if err == nil && (resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), StreamProtocol)) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		err = &refusedError{url: req.URL.String(), status: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
	}
	if err == nil {
		err = nc.SetDeadline(time.Time{})
	}
	if err != nil {
		nc.Close()
		var refused *refusedError
		if !errors.As(err, &refused) {
			err = fmt.Errorf("wire: member stream upgrade at %s: %w", req.URL, err)
		}
		return nil, nil, err
	}
	return nc, br, nil
}

// StreamServer is what the answering end of a member stream serves, one
// field per frame kind: a node sets Query (query frames) and Deliver
// (update frames, acknowledged with its applied count), a coordinator
// sets Peer (its peers' frames). A frame of a kind whose field is nil is
// a protocol error, like an unknown kind.
type StreamServer struct {
	Query   QueryServer
	Deliver func([]Record) (applied int, err error)
	Peer    PeerServer
}

// StreamHandler returns the answering end of the member stream: the
// handler of GET StreamPath, which takes the connection over (Upgrade:
// StreamProtocol) and serves it with srv until it fails. A request
// asking for anything else is refused with 426.
func StreamHandler(srv StreamServer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
			w.Header().Set("Connection", "Upgrade")
			w.Header().Set("Upgrade", StreamProtocol)
			http.Error(w, "want Upgrade: "+StreamProtocol, http.StatusUpgradeRequired)
			return
		}
		nc, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, "member stream: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// The server's ReadHeaderTimeout left a read deadline on the
		// connection; a member stream lives as long as its coordinator.
		err = nc.SetDeadline(time.Time{})
		if err == nil {
			_, err = io.WriteString(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+StreamProtocol+"\r\n\r\n")
		}
		if err != nil {
			nc.Close()
			return
		}
		serveStream(nc, brw.Reader, srv)
	})
}

// streamJob is one request the reader handed to a worker.
type streamJob struct {
	id      uint64
	kind    byte
	payload []byte
}

// serveStream runs one upgraded connection to its end. This goroutine
// reads frames; a fixed set of long-lived workers — warm stacks, no
// goroutine per request — answers them, so a request held by one worker
// never delays the next, and each answer is written whole under one
// lock. The first malformed frame or read or write error closes the
// connection; serveStream returns once its workers have.
func serveStream(nc net.Conn, br *bufio.Reader, srv StreamServer) {
	jobs := make(chan streamJob)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for range max(4, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for job := range jobs {
				var err error
				if out, err = answerStream(out[:0], job, srv); err == nil {
					wmu.Lock()
					_, err = nc.Write(out)
					wmu.Unlock()
				}
				if err != nil {
					nc.Close() // ends the reader's loop below
				}
			}
		}()
	}
	for {
		id, kind, payload, err := readStreamFrame(br)
		if err != nil {
			break
		}
		jobs <- streamJob{id, kind, payload}
	}
	nc.Close() // unblocks a worker writing to a peer that stopped reading
	close(jobs)
	wg.Wait()
}

// answerStream appends the answer frame of one request to dst. A
// payload that does not decode exactly, or a kind srv does not serve,
// is a protocol error. An answer that outgrew a frame (a Within over a
// huge store) is replaced by an in-band error.
func answerStream(dst []byte, job streamJob, srv StreamServer) ([]byte, error) {
	start := len(dst)
	dst = appendStreamHeader(dst, job.id, job.kind)
	at := len(dst)
	switch {
	case job.kind == StreamQuery && srv.Query != nil:
		req, n, err := DecodeQueryRequest(job.payload)
		if err = whole(n, job.payload, "a query request", err); err != nil {
			return nil, err
		}
		dst = AppendQueryResponse(dst, srv.Query.ServeQuery(req))
		if body := len(dst) - at - 4; body > MaxFrameBody {
			dst = AppendQueryResponse(dst[:at], QueryResponse{Op: req.Op,
				Err: fmt.Sprintf("wire: response body %d exceeds %d bytes", body, MaxFrameBody)})
		}
	case job.kind == StreamUpdate && srv.Deliver != nil:
		recs, n, err := DecodeFrame(job.payload)
		if err = whole(n, job.payload, "an update frame", err); err != nil {
			return nil, err
		}
		// Per-record failures are reflected in the count, as on /updates.
		applied, _ := srv.Deliver(recs)
		dst = binary.AppendUvarint(dst, uint64(applied))
	case job.kind == StreamPeer && srv.Peer != nil:
		req, n, err := DecodePeerRequest(job.payload)
		if err = whole(n, job.payload, "a peer request", err); err != nil {
			return nil, err
		}
		dst = AppendPeerResponse(dst, srv.Peer.ServePeer(req))
		if body := len(dst) - at - 4; body > MaxFrameBody {
			dst = AppendPeerResponse(dst[:at], PeerResponse{Op: req.Op,
				Err: fmt.Sprintf("wire: peer response body %d exceeds %d bytes", body, MaxFrameBody)})
		}
	default:
		return nil, fmt.Errorf("wire: stream frame kind %d is not served here", job.kind)
	}
	return finishStreamFrame(dst, start), nil
}
