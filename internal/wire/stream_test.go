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

// echoQuery answers Position with echoX and Stats with a fixed count.
func echoQuery(req QueryRequest) QueryResponse {
	resp := QueryResponse{Op: req.Op}
	switch req.Op {
	case OpPosition:
		resp.Found = true
		resp.Hits = []QueryHit{{ID: req.ID, X: echoX(req.ID), Y: req.T}}
	case OpStats:
		resp.Stats.Objects = 9
	}
	if req.Trace != 0 {
		resp.Spans = []Span{{Stage: StageNodeQuery, Dur: 1}}
	}
	return resp
}

func countDeliver(recs []Record) (int, error) { return len(recs), nil }

// streamServer serves the member stream over httptest with q and
// deliver, counting upgrades.
func streamServer(t *testing.T, q QueryServerFunc, deliver func([]Record) (int, error)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	upgrades := new(atomic.Int64)
	h := StreamHandler(q, deliver)
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
	var records atomic.Int64
	ts, upgrades := streamServer(t, echoQuery, func(recs []Record) (int, error) {
		records.Add(int64(len(recs)))
		return len(recs) - 1, nil // one record per frame "rejected"
	})
	s := NewStream(ts.URL)
	defer s.Close()

	if err := position(s, "car-1"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(QueryRequest{Op: OpStats, Trace: 7})
	if err != nil {
		t.Fatal(err)
	}
	var stages []SpanStage
	for _, sp := range resp.Spans {
		stages = append(stages, sp.Stage)
	}
	if want := []SpanStage{StageEncodeReq, StageRTT, StageDecodeResp, StageNodeQuery}; resp.Stats.Objects != 9 || !reflect.DeepEqual(stages, want) {
		t.Fatalf("traced stats: objects %d, stages %v want %v", resp.Stats.Objects, stages, want)
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
	if st := s.QueryStats(); st.Queries != 2 || st.Errors != 0 || st.Retries != 0 {
		t.Fatalf("query stats %+v", st)
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
		out, err := answerStream(nil, streamJob{id, kind, payload}, QueryServerFunc(echoQuery), countDeliver)
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
		Handler:           StreamHandler(QueryServerFunc(echoQuery), countDeliver),
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
	h := StreamHandler(QueryServerFunc(echoQuery), countDeliver)
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
	resp, err := s.Query(QueryRequest{Op: OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Objects != 9 {
		t.Fatalf("resp %+v", resp)
	}
	if st := s.QueryStats(); st.Queries != 1 || st.Retries != 1 || st.Errors != 0 {
		t.Errorf("stats %+v", st)
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
// readers: the coordinator's answer check and the node's request
// decoding must error, never panic or allocate ahead of the input.
func FuzzStreamFrameDecode(f *testing.F) {
	query := finishStreamFrame(AppendQueryRequest(appendStreamHeader(nil, 1, StreamQuery),
		QueryRequest{Op: OpNearest, X: 1, Y: 2, K: 3, T: 4}), 0)
	update := finishStreamFrame(AppendFrame(appendStreamHeader(nil, 2, StreamUpdate), sampleBatch()), 0)
	answer, _ := answerStream(nil, streamJob{3, StreamQuery, query[streamHeader:]}, QueryServerFunc(echoQuery), countDeliver)
	ack, _ := answerStream(nil, streamJob{4, StreamUpdate, update[streamHeader:]}, QueryServerFunc(echoQuery), countDeliver)
	f.Add(query)
	f.Add(update)
	f.Add(append(answer, ack...))
	f.Add(query[:len(query)-1])
	oversized := appendStreamHeader(nil, 6, StreamUpdate)
	binary.LittleEndian.PutUint32(oversized, maxStreamFrame+1)
	f.Add(oversized)
	f.Add(finishStreamFrame(append(appendStreamHeader(nil, 5, 0), 1), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			id, kind, payload, err := readStreamFrame(r)
			if err != nil {
				return
			}
			_ = checkAnswer(kind, payload)
			_, _ = answerStream(nil, streamJob{id, kind, payload}, QueryServerFunc(echoQuery), countDeliver)
		}
	})
}
