package wire

// Member stream tests: the multiplexed coordinator→node connection.
// Run them under -race: every test here calls one Stream from several
// goroutines at once.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoX is the scripted node's position answer for an id: distinct per
// id, so a caller handed someone else's answer notices.
func echoX(id string) float64 {
	return float64(KeyHash(id) >> 11)
}

// echoQuery answers Position with echoX and Metrics with a fixed blob.
func echoQuery(req QueryRequest) QueryResponse {
	resp := QueryResponse{Op: req.Op}
	switch req.Op {
	case OpPosition:
		resp.Found = true
		resp.Hits = []QueryHit{{ID: req.ID, X: echoX(req.ID), Y: req.T}}
	case OpMetrics:
		resp.Metrics = []byte{9}
	}
	if req.Trace != 0 {
		resp.Spans = []Span{{Stage: StageNodeQuery, Dur: 1}}
	}
	return resp
}

func countDeliver(recs []Record) (int, error) { return len(recs), nil }

// echoPeer answers a log exchange with the sender's log and a hint
// hand-off with its record count; stats is refused in-band.
func echoPeer(req PeerRequest) PeerResponse {
	switch req.Op {
	case PeerOpLog:
		return PeerResponse{Op: PeerOpLog, Log: req.Log}
	case PeerOpHints:
		return PeerResponse{Op: PeerOpHints, Applied: len(req.Hints)}
	default:
		return PeerResponse{Op: req.Op, Err: "unsupported"}
	}
}

// echoNode is the scripted node: echoQuery and countDeliver, no peers.
var echoNode = StreamServer{Query: QueryServerFunc(echoQuery), Deliver: countDeliver}

// streamServer serves the member stream over httptest with q and
// deliver, counting upgrades.
func streamServer(t *testing.T, q QueryServerFunc, deliver func([]Record) (int, error)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	upgrades := new(atomic.Int64)
	h := StreamHandler(StreamServer{Query: q, Deliver: deliver})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == StreamPath {
			upgrades.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, upgrades
}

// errWrongAnswer marks an answer that was not the caller's own.
var errWrongAnswer = errors.New("wrong answer")

// position asks s for id's position and checks the answer is id's own.
func position(s *Stream, id string) error {
	resp, err := s.Query(QueryRequest{Op: OpPosition, ID: id, T: 1})
	if err != nil {
		return err
	}
	if !resp.Found || len(resp.Hits) != 1 || resp.Hits[0].X != echoX(id) {
		return fmt.Errorf("%w: asked for %q, got %+v", errWrongAnswer, id, resp)
	}
	return nil
}

// TestStreamRoundTrip: queries and chunked update batches share one
// connection; a traced query gets the client's encode/rtt/decode spans
// ahead of the node's.
func TestStreamRoundTrip(t *testing.T) {
	var records, served atomic.Int64
	ts, upgrades := streamServer(t, func(req QueryRequest) QueryResponse {
		served.Add(1)
		return echoQuery(req)
	}, func(recs []Record) (int, error) {
		records.Add(int64(len(recs)))
		return len(recs) - 1, nil // one record per frame "rejected"
	})
	s := NewStream(ts.URL)
	defer s.Close()

	if err := position(s, "car-1"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(QueryRequest{Op: OpMetrics, Trace: 7})
	if err != nil {
		t.Fatal(err)
	}
	var stages []SpanStage
	for _, sp := range resp.Spans {
		stages = append(stages, sp.Stage)
	}
	if want := []SpanStage{StageEncodeReq, StageRTT, StageDecodeResp, StageNodeQuery}; !bytes.Equal(resp.Metrics, []byte{9}) || !reflect.DeepEqual(stages, want) {
		t.Fatalf("traced metrics: blob %v, stages %v want %v", resp.Metrics, stages, want)
	}

	applied, err := s.SendCounted(0, batchOf(maxRecordsPerFrame+1))
	if err != nil {
		t.Fatal(err)
	}
	if applied != maxRecordsPerFrame+1-2 || records.Load() != maxRecordsPerFrame+1 {
		t.Fatalf("applied %d, node saw %d records", applied, records.Load())
	}
	if st := s.Stats(); st.Sent != maxRecordsPerFrame+1 || st.Delivered != st.Sent || st.Frames != 2 || st.Errors != 0 {
		t.Fatalf("update stats %+v", st)
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("node served %d queries, want 2", n)
	}
	if n := upgrades.Load(); n != 1 {
		t.Fatalf("%d upgrades for one stream, want 1", n)
	}
}

// TestStreamOutOfOrder: a request held inside the node must not delay
// one sent after it on the same connection, and every caller gets its
// own answer.
func TestStreamOutOfOrder(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	ts, upgrades := streamServer(t, func(req QueryRequest) QueryResponse {
		if req.ID == "slow" {
			close(held)
			<-release
		}
		return echoQuery(req)
	}, countDeliver)
	s := NewStream(ts.URL)
	defer s.Close()
	if err := position(s, "warm-up"); err != nil { // one connection, already dialed
		t.Fatal(err)
	}

	slow := make(chan error, 1)
	go func() { slow <- position(s, "slow") }()
	<-held
	// The slow request is parked inside a node worker; later requests on
	// the same connection, from many callers, complete around it.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := position(s, fmt.Sprintf("fast-%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-slow:
		t.Fatalf("held request completed before its release: %v", err)
	default:
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if n := upgrades.Load(); n != 1 {
		t.Fatalf("%d connections, want 1", n)
	}
}

// rawStreamServer accepts member-stream upgrades by hand and hands the
// i-th connection (from 0), after its 101, to serve; it stops when the
// test ends.
func rawStreamServer(t *testing.T, serve func(i int, nc net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				if _, err := fmt.Fprintf(nc, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", StreamProtocol); err != nil {
					return
				}
				serve(i, nc, br)
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// answerAll answers every request on the connection like echoQuery.
func answerAll(nc net.Conn, br *bufio.Reader) {
	for {
		id, kind, payload, err := readStreamFrame(br)
		if err != nil {
			return
		}
		out, err := answerStream(nil, streamJob{id, kind, payload}, echoNode)
		if err != nil {
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// TestStreamBadFrames: a truncated, oversized or unknown-kind answer
// closes the connection and fails every pending call at once — well
// inside its deadline — and the next call redials.
func TestStreamBadFrames(t *testing.T) {
	const pendingCalls = 3
	header := func(n uint32) []byte {
		h := appendStreamHeader(nil, 1, StreamQuery)
		binary.LittleEndian.PutUint32(h, n)
		return h
	}
	bad := map[string][]byte{
		// A header promising 100 payload bytes, 5 of them sent, then EOF.
		"truncated":    append(header(streamHeader-4+100), 1, 2, 3, 4, 5),
		"oversized":    header(maxStreamFrame + 1),
		"unknown-kind": finishStreamFrame(append(appendStreamHeader(nil, 1, 9), 0, 0, 0, 0), 0),
	}
	for name, frame := range bad {
		t.Run(name, func(t *testing.T) {
			base := rawStreamServer(t, func(i int, nc net.Conn, br *bufio.Reader) {
				if i > 0 {
					answerAll(nc, br)
					return
				}
				// First connection: take every pending call's request,
				// then answer with the bad frame. A truncated frame ends
				// with the connection; the others leave it open until
				// the client hangs up.
				for n := 0; n < pendingCalls; n++ {
					if _, _, _, err := readStreamFrame(br); err != nil {
						return
					}
				}
				if _, err := nc.Write(frame); err != nil || name == "truncated" {
					return
				}
				for {
					if _, _, _, err := readStreamFrame(br); err != nil {
						return
					}
				}
			})
			const timeout = 5 * time.Second
			s := NewStream(base)
			s.SetRetry(timeout, 0, 0)
			defer s.Close()

			start := time.Now()
			errs := make(chan error, pendingCalls)
			for n := 0; n < pendingCalls; n++ {
				go func() { errs <- position(s, fmt.Sprintf("pending-%d", n)) }()
			}
			for n := 0; n < pendingCalls; n++ {
				if err := <-errs; err == nil {
					t.Error("a pending call survived the bad frame")
				}
			}
			if took := time.Since(start); took > timeout/2 {
				t.Fatalf("pending calls failed after %v: the bad frame did not fail them", took)
			}
			if err := position(s, "after"); err != nil {
				t.Fatalf("the next call did not redial: %v", err)
			}
		})
	}
}

// restartableNode serves the member stream on a fixed address that can
// be taken down — listener and every open connection — and brought back.
type restartableNode struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	srv   *http.Server
	conns map[net.Conn]bool
}

func (n *restartableNode) start() {
	n.t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	srv := &http.Server{
		Handler:           StreamHandler(echoNode),
		ReadHeaderTimeout: time.Second,
		ConnState: func(nc net.Conn, st http.ConnState) {
			n.mu.Lock()
			defer n.mu.Unlock()
			if st == http.StateNew {
				n.conns[nc] = true
			}
		},
	}
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
	go srv.Serve(ln)
}

// stop closes the listener and every connection, hijacked ones included.
func (n *restartableNode) stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.srv.Close()
	for nc := range n.conns {
		nc.Close()
	}
	clear(n.conns)
}

// TestStreamNodeRestart: a node's server closes and comes back on the
// same address while 8 goroutines call. No call outlives its per-attempt
// timeout, no answer reaches the wrong caller, and every caller gets
// answers again once the node is back.
func TestStreamNodeRestart(t *testing.T) {
	node := &restartableNode{t: t, addr: "127.0.0.1:0", conns: make(map[net.Conn]bool)}
	node.start()
	defer node.stop()
	const timeout = 300 * time.Millisecond
	s := NewStream("http://" + node.addr)
	s.SetRetry(timeout, 0, 0)
	defer s.Close()

	var phase atomic.Int32 // 0 before the outage, 1 during, 2 after the restart
	var failed atomic.Int64
	giveUp := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			okAfter := 0
			for i := 0; okAfter < 5; i++ {
				if time.Now().After(giveUp) {
					t.Error("callers never recovered after the restart")
					return
				}
				before := phase.Load()
				start := time.Now()
				err := position(s, fmt.Sprintf("caller-%d-%d", g, i))
				if took := time.Since(start); took > timeout+200*time.Millisecond {
					t.Errorf("call took %v, per-attempt timeout %v", took, timeout)
					return
				}
				switch {
				case errors.Is(err, errWrongAnswer):
					t.Error(err)
					return
				case err == nil && before == 2:
					okAfter++
				case err != nil && phase.Load() == 0:
					t.Errorf("call failed before the outage: %v", err)
					return
				case err != nil:
					failed.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	phase.Store(1)
	node.stop()
	time.Sleep(100 * time.Millisecond)
	node.start()
	phase.Store(2)
	wg.Wait()
	if failed.Load() == 0 {
		t.Error("no call failed while the node was down")
	}
}

// TestStreamRetries: a node refusing the upgrade with a 5xx is retried
// under the policy; a 4xx (not a member-stream node) fails the call at
// once.
func TestStreamRetries(t *testing.T) {
	var attempts atomic.Int64
	h := StreamHandler(echoNode)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	s := NewStream(ts.URL)
	s.SetRetry(time.Second, 2, time.Millisecond)
	defer s.Close()
	resp, err := s.Query(QueryRequest{Op: OpMetrics})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Metrics, []byte{9}) {
		t.Fatalf("resp %+v", resp)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("%d upgrade requests, want 2: the refused one and its retry", n)
	}

	plain := httptest.NewServer(http.NotFoundHandler())
	defer plain.Close()
	p := NewStream(plain.URL)
	p.SetRetry(time.Second, 2, time.Millisecond)
	defer p.Close()
	if err := p.Send(0, batchOf(1)); err == nil {
		t.Fatal("a node without the member stream accepted a batch")
	}
	if st := p.Stats(); st.Errors != 1 || st.Retries != 0 {
		t.Errorf("refused upgrade: stats %+v, want one error and no retry", st)
	}
}

// FuzzStreamFrameDecode throws arbitrary bytes at both ends' frame
// readers: the caller's answer check and the callee's request decoding
// must error, never panic or allocate ahead of the input.
func FuzzStreamFrameDecode(f *testing.F) {
	every := StreamServer{Query: QueryServerFunc(echoQuery), Deliver: countDeliver, Peer: PeerServerFunc(echoPeer)}
	query := finishStreamFrame(AppendQueryRequest(appendStreamHeader(nil, 1, StreamQuery),
		QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 3, T: 4}), 0)
	update := finishStreamFrame(AppendFrame(appendStreamHeader(nil, 2, StreamUpdate), sampleBatch()), 0)
	answer, _ := answerStream(nil, streamJob{3, StreamQuery, query[streamHeader:]}, every)
	ack, _ := answerStream(nil, streamJob{4, StreamUpdate, update[streamHeader:]}, every)
	f.Add(query)
	f.Add(update)
	f.Add(append(answer, ack...))
	f.Add(query[:len(query)-1])
	oversized := appendStreamHeader(nil, 6, StreamUpdate)
	binary.LittleEndian.PutUint32(oversized, maxStreamFrame+1)
	f.Add(oversized)
	f.Add(finishStreamFrame(append(appendStreamHeader(nil, 5, 0), 1), 0))
	peer := finishStreamFrame(AppendPeerRequest(appendStreamHeader(nil, 7, StreamPeer), samplePeerRequests()[0]), 0)
	peerAnswer, _ := answerStream(nil, streamJob{7, StreamPeer, peer[streamHeader:]}, every)
	f.Add(peer)
	f.Add(peerAnswer)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			id, kind, payload, err := readStreamFrame(r)
			if err != nil {
				return
			}
			_ = checkAnswer(kind, payload)
			_, _ = answerStream(nil, streamJob{id, kind, payload}, every)
		}
	})
}

// TestStreamLoopbackQuery: the in-process stream answers queries
// through the frame codec and the answer checks, and fails a request it
// cannot encode, or one of a kind its server does not serve, without
// retrying.
func TestStreamLoopbackQuery(t *testing.T) {
	var served atomic.Int64
	lb := NewStreamLoopback(StreamServer{Query: QueryServerFunc(func(req QueryRequest) QueryResponse {
		served.Add(1)
		return echoQuery(req)
	}), Deliver: countDeliver})
	resp, err := lb.Query(QueryRequest{Op: OpPosition, ID: "car", T: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Found || resp.Hits[0].X != echoX("car") || resp.Hits[0].Y != 7 {
		t.Fatalf("resp %+v", resp)
	}
	resp, err = lb.Query(QueryRequest{Op: OpMetrics, Trace: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Metrics, []byte{9}) || len(resp.Spans) != 4 || resp.Spans[3].Stage != StageNodeQuery {
		t.Fatalf("traced metrics: %+v", resp)
	}
	if applied, err := lb.SendCounted(0, batchOf(3)); err != nil || applied != 3 {
		t.Fatalf("update batch: applied %d, err %v", applied, err)
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("served %d queries, want 2", n)
	}
	// An unencodable request is a transport error, never served.
	if _, err := lb.Query(QueryRequest{Op: 77}); err == nil {
		t.Fatal("invalid op passed the loopback")
	}
	if _, err := lb.Peer(PeerRequest{Op: PeerOpView, From: "co-a"}); err == nil {
		t.Fatal("a node loopback answered a peer frame")
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("served %d queries after the failures, want still 2: no retry reached the server", n)
	}
}

// TestStreamLoopbackPeer: peer requests and responses, in-band errors
// included, survive the in-process stream; a query to a coordinator's
// loopback fails.
func TestStreamLoopbackPeer(t *testing.T) {
	lb := NewStreamLoopback(StreamServer{Peer: PeerServerFunc(echoPeer)})
	resp, err := lb.Peer(PeerRequest{Op: PeerOpLog, From: "co-a", Log: sampleLogRecords()})
	if err != nil {
		t.Fatalf("log exchange: %v", err)
	}
	if !EqualLogs(resp.Log, sampleLogRecords()) {
		t.Fatalf("log did not round-trip through the loopback")
	}
	resp, err = lb.Peer(samplePeerRequests()[2])
	if err != nil || resp.Applied != 2 {
		t.Fatalf("hint push: applied=%d err=%v", resp.Applied, err)
	}
	resp, err = lb.Peer(PeerRequest{Op: PeerOpView, From: "co-a"})
	if err != nil || resp.Err == "" {
		t.Fatalf("error response must survive the codec: %+v, %v", resp, err)
	}
	if _, err := lb.Query(QueryRequest{Op: OpMetrics}); err == nil {
		t.Fatal("a coordinator loopback answered a query frame")
	}
}

// TestStreamPeer: peer frames share one connection with every other
// call to a coordinator, and an oversized request is refused before it
// is sent.
func TestStreamPeer(t *testing.T) {
	h := StreamHandler(StreamServer{Peer: PeerServerFunc(echoPeer)})
	ts := httptest.NewServer(h)
	defer ts.Close()
	s := NewStream(ts.URL)
	defer s.Close()
	for _, req := range samplePeerRequests() {
		resp, err := s.Peer(req)
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if want := echoPeer(req); !reflect.DeepEqual(resp, want) {
			t.Fatalf("%v: got %+v, want %+v", req.Op, resp, want)
		}
	}
	big := rec(strings.Repeat("x", MaxIDLen), 1, 0)
	huge := PeerRequest{Op: PeerOpHints, From: "co-a", Member: "n1", Hints: slices.Repeat([]Record{big}, MaxFrameBody/MaxIDLen)}
	if _, err := s.Peer(huge); err == nil {
		t.Fatal("a peer request over the frame bound was sent")
	}
}
