package cluster

// The coordinator over member streams (NewHTTPMember): breaker and
// recovery across a node restart, no connection or goroutine left
// behind by a member that leaves, and each role refusing the other's
// frames and another version's upgrade.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// nodeServer serves a node's handler on a fixed loopback address and
// can be taken down — listener and every connection, member streams
// included — and brought back on the same address with its store
// intact. streams counts the member streams being served.
type nodeServer struct {
	t       *testing.T
	node    *locserv.NodeService
	addr    string
	streams atomic.Int64

	mu    sync.Mutex
	srv   *http.Server
	conns map[net.Conn]bool
}

func newNodeServer(t *testing.T) *nodeServer {
	node := locserv.NewNodeService(locserv.NewSharded(4),
		func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
	s := &nodeServer{t: t, node: node, addr: "127.0.0.1:0", conns: make(map[net.Conn]bool)}
	s.start()
	t.Cleanup(s.stop)
	return s
}

func (s *nodeServer) url() string { return "http://" + s.addr }

func (s *nodeServer) start() {
	s.t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	h := s.node.Handler()
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == wire.StreamPath {
				s.streams.Add(1)
				defer s.streams.Add(-1)
			}
			h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: time.Second,
		ConnState: func(nc net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.mu.Lock()
				s.conns[nc] = true
				s.mu.Unlock()
			}
		},
	}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln)
}

func (s *nodeServer) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
	for nc := range s.conns {
		nc.Close()
	}
	clear(s.conns)
}

// streamCluster returns a coordinator at R=2 over n member streams to
// node servers named n0..n{n-1}, every stream on a short per-attempt
// timeout and no retries, with objs objects delivered through it.
func streamCluster(t *testing.T, n, objs int, timeout time.Duration) (*Coordinator, map[string]*nodeServer) {
	t.Helper()
	servers := make(map[string]*nodeServer)
	var members []*Member
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		servers[name] = newNodeServer(t)
		m := NewHTTPMember(name, servers[name].url(), nil)
		m.Ingest.(*wire.Stream).SetRetry(timeout, 0, time.Millisecond)
		t.Cleanup(func() { m.Ingest.(*wire.Stream).Close() })
		members = append(members, m)
	}
	coord, err := NewReplicated(0, 2, members...)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]wire.Record, objs)
	for i := range recs {
		recs[i] = wire.Record{ID: fmt.Sprintf("obj-%04d", i), Update: core.Update{
			Reason: core.ReasonInit,
			Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i)*10, float64(i%7)*10), V: 2, Heading: 0.5},
		}}
	}
	if err := coord.Send(0, recs); err != nil {
		t.Fatal(err)
	}
	return coord, servers
}

func memberDown(c *Coordinator, name string) bool {
	for _, ms := range c.MemberStats() {
		if ms.Name == name {
			return ms.Down
		}
	}
	return false
}

// TestMemberStreamNodeRestart closes one node's server — its listener
// and its member streams — and restarts it on the same address while 8
// goroutines query. No coordinator call outlives the per-attempt
// timeout, no answer reaches the wrong caller, the surviving replica
// answers every query, and the breaker trips and recovers as it does
// over HTTP: open after consecutive failures, closed by a recovery
// probe once the node is back.
func TestMemberStreamNodeRestart(t *testing.T) {
	const objs, timeout = 64, 300 * time.Millisecond
	coord, servers := streamCluster(t, 3, objs, timeout)
	want := make([]geo.Point, objs)
	for i := range want {
		p, ok, err := coord.PositionE(locserv.ObjectID(fmt.Sprintf("obj-%04d", i)), 1)
		if err != nil || !ok {
			t.Fatalf("obj-%04d: %v %v", i, ok, err)
		}
		want[i] = p
	}

	stop := make(chan struct{})
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i = (i + 8) % objs {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				p, ok, err := coord.PositionE(locserv.ObjectID(fmt.Sprintf("obj-%04d", i)), 1)
				if took := time.Since(start); took > timeout+200*time.Millisecond {
					t.Errorf("query took %v, per-attempt timeout %v", took, timeout)
					return
				}
				if err != nil || !ok || p != want[i] {
					t.Errorf("obj-%04d: (%v, %v, %v), want %v", i, p, ok, err, want[i])
					return
				}
				calls.Add(1)
			}
		}()
	}
	atLeast := func(n int64) func() bool {
		target := calls.Load() + n
		return func() bool { return calls.Load() >= target }
	}

	waitFor(t, "queries before the outage", atLeast(50))
	servers["n1"].stop()
	waitFor(t, "n1's breaker to trip", func() bool { return memberDown(coord, "n1") })
	waitFor(t, "queries degraded around n1", atLeast(50))
	servers["n1"].start()
	waitFor(t, "n1 to recover", func() bool { coord.ProbeDown(); return !memberDown(coord, "n1") })
	queried := coord.MemberStats()
	waitFor(t, "queries after the restart", atLeast(50))
	close(stop)
	wg.Wait()

	for i, ms := range coord.MemberStats() {
		if ms.Name == "n1" && ms.Queries <= queried[i].Queries {
			t.Errorf("recovered n1 is not queried again: %d queries", ms.Queries)
		}
	}
	if coord.QueryErrors() != 0 {
		t.Errorf("%d query errors with a live replica for every key", coord.QueryErrors())
	}
}

// upgradeCounter serves h, counting the member-stream upgrades asked
// of it.
func upgradeCounter(t *testing.T, h http.Handler) (string, *atomic.Int64) {
	upgrades := new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.StreamPath {
			upgrades.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, upgrades
}

// TestMemberStreamWrongRole: a node serves no peer frames and a
// coordinator no query frames. Either frame sent to the wrong role
// closes the connection and fails the call, and the next call redials.
func TestMemberStreamWrongRole(t *testing.T) {
	_, node := linearNode("n1", 2)
	coord, err := NewReplicated(0, 1, NewLocalMember("n1", node))
	if err != nil {
		t.Fatal(err)
	}
	coord.EnableFanIn("co-a", FanInConfig{})
	metrics := wire.QueryRequest{Op: wire.OpMetrics}
	gossip := wire.PeerRequest{Op: wire.PeerOpLog, From: "co-b"}
	for _, role := range []struct {
		name      string
		h         http.Handler
		wrong, ok func(*wire.Stream) error
	}{
		{"node", node.Handler(),
			func(s *wire.Stream) error { _, err := s.Peer(gossip); return err },
			func(s *wire.Stream) error { _, err := s.Query(metrics); return err }},
		{"coordinator", Handler(coord),
			func(s *wire.Stream) error { _, err := s.Query(metrics); return err },
			func(s *wire.Stream) error { _, err := s.Peer(gossip); return err }},
	} {
		t.Run(role.name, func(t *testing.T) {
			url, upgrades := upgradeCounter(t, role.h)
			s := wire.NewStream(url)
			s.SetRetry(2*time.Second, 0, 0)
			defer s.Close()
			if err := role.ok(s); err != nil {
				t.Fatal(err)
			}
			if err := role.wrong(s); err == nil {
				t.Fatal("the wrong frame kind was answered")
			}
			if err := role.ok(s); err != nil {
				t.Fatalf("the call after the protocol error: %v", err)
			}
			if n := upgrades.Load(); n != 2 {
				t.Fatalf("%d upgrades, want 2: the wrong frame did not close the connection", n)
			}
		})
	}
}

// TestMemberStreamOtherVersion: the upgrade token is the one version of
// every member-stream body, so a caller asking for the previous token
// is refused with 426 and told the one this build speaks — by a node's
// handler and by a coordinator's.
func TestMemberStreamOtherVersion(t *testing.T) {
	_, node := linearNode("n1", 2)
	coord, err := NewReplicated(0, 1, NewLocalMember("n1", node))
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []struct {
		name string
		h    http.Handler
	}{{"node", node.Handler()}, {"coordinator", Handler(coord)}} {
		t.Run(role.name, func(t *testing.T) {
			ts := httptest.NewServer(role.h)
			defer ts.Close()
			req, err := http.NewRequest(http.MethodGet, ts.URL+wire.StreamPath, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", "mapdr-member/1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "mapdr-member/2" {
				t.Fatalf("Upgrade: mapdr-member/1 -> %d, Upgrade: %q; want 426 and mapdr-member/2",
					resp.StatusCode, resp.Header.Get("Upgrade"))
			}
		})
	}
}

// streamReaders counts the member-stream reader goroutines in the
// process.
func streamReaders() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "wire.(*streamConn).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settledReaders waits for the reader count to stop moving (streams
// closed by earlier tests wind down asynchronously) and returns it.
func settledReaders() int {
	last := streamReaders()
	for stable := 0; stable < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := streamReaders(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	return last
}

// TestMemberStreamHangUp: a member that leaves through RemoveNode, or
// through auto-demotion, is hung up on — its node serves no member
// stream and the coordinator runs no reader for it any more.
func TestMemberStreamHangUp(t *testing.T) {
	base := settledReaders()
	coord, servers := streamCluster(t, 4, 40, 2*time.Second)
	coord.MemberStats() // every member's stream is open now
	open := func(want int) func() bool {
		return func() bool {
			served := 0
			for _, s := range servers {
				served += int(s.streams.Load())
			}
			return served == want && streamReaders() == base+want
		}
	}
	waitFor(t, "4 open streams", open(4))

	if err := coord.RemoveNode("n3"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "n3's stream to close", open(3))
	if servers["n3"].streams.Load() != 0 {
		t.Fatal("the removed member's node still serves a stream")
	}

	// n2's node stays up, and its recovery probes succeed, but too few
	// of them to bring it back before the demotion deadline: the member
	// leaves with its stream open.
	coord.EnableSelfHeal(SelfHealConfig{HeartbeatEvery: 1, SuspectAfter: 2, DemoteAfter: 5, RecoverAfter: 100})
	if err := coord.MarkDown("n2", true); err != nil {
		t.Fatal(err)
	}
	coord.Tick(6) // past DemoteAfter
	if got := coord.Demoted(); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("demoted %v, want [n2]", got)
	}
	waitFor(t, "n2's stream to close", open(2))
	if servers["n2"].streams.Load() != 0 {
		t.Fatal("the demoted member's node still serves a stream")
	}
	if _, ok, err := coord.PositionE("obj-0001", 1); err != nil || !ok {
		t.Fatalf("query after the departures: %v %v", ok, err)
	}
}
