package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// noNode stands in for a member's node where only the routing table is
// under test: no call ever reaches it.
type noNode struct{ locserv.Node }

func tableMember(name string) *Member {
	return &Member{Name: name, Node: noNode{}, Addr: "mem://" + name}
}

// tableView is everything a router can observe of a table: scatter
// order, per-key preference lists and routing owner sets (dual adds
// included), and the published dual routes.
type tableView struct {
	nodes  []string
	owners [][]string
	routed [][]string
	duals  []arcMove
}

func viewTable(t *routingTable, keys []string) tableView {
	v := tableView{nodes: t.Nodes()}
	for _, k := range keys {
		v.owners = append(v.owners, t.Owners(locserv.ObjectID(k)))
	}
	t.hold()
	defer t.release()
	for _, k := range keys {
		v.routed = append(v.routed, t.ownersFor(nil, k))
	}
	v.duals = append([]arcMove(nil), t.duals...)
	return v
}

func dropNames(drops []dropTarget) []string {
	var out []string
	for _, d := range drops {
		out = append(out, fmt.Sprintf("%s(%x,%x]", d.m.Name, d.lo, d.hi))
	}
	return out
}

// TestRoutingPlanDriverAndRecordEntriesAgree plays seeded random joins,
// leaves and reweights — valid and invalid — against two tables: one
// takes each change the way the migration driver does (the LogBegin
// record built from the Begin* arguments, the caller's own member
// handle), the other the way a fan-in follower does (the record after a
// trip through the log codec, the handle from a member factory). Plans
// and every table state along enter → commit|rollback must be
// identical, enter must publish every move with adds, and a rollback
// must restore the table exactly.
func TestRoutingPlanDriverAndRecordEntriesAgree(t *testing.T) {
	factory := func(name, addr string) (*Member, error) {
		if addr != "mem://"+name {
			return nil, fmt.Errorf("address %q did not survive the record", addr)
		}
		return tableMember(name), nil
	}
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%05d", i)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rf := 1 + rng.Intn(3)
		var seedMembers [2][]*Member
		for i := 1; i <= 3; i++ {
			for side := range seedMembers {
				seedMembers[side] = append(seedMembers[side], tableMember(fmt.Sprintf("n%d", i)))
			}
		}
		driver, err := newRoutingTable(16, rf, seedMembers[0]...)
		if err != nil {
			t.Fatal(err)
		}
		follower, err := newRoutingTable(16, rf, seedMembers[1]...)
		if err != nil {
			t.Fatal(err)
		}
		nextName := 4
		for step := 0; step < 40; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			nodes := driver.Nodes()
			var rec wire.LogRecord
			var joining *Member
			switch rng.Intn(8) {
			case 0, 1:
				joining = tableMember(fmt.Sprintf("n%d", nextName))
				nextName++
				rec = beginRecord(migKindJoin, joining.Name, joining.Addr, nil)
			case 2:
				joining = tableMember(nodes[rng.Intn(len(nodes))]) // duplicate: refused
				rec = beginRecord(migKindJoin, joining.Name, joining.Addr, nil)
			case 3, 4:
				rec = beginRecord(migKindLeave, nodes[rng.Intn(len(nodes))], "", nil) // refused at one member
			case 5:
				rec = beginRecord(migKindLeave, "nobody", "", nil)
			default:
				weights := map[string]int{}
				for _, name := range nodes {
					if rng.Intn(2) == 0 {
						weights[name] = 4 + rng.Intn(40)
					}
				}
				if rng.Intn(6) == 0 {
					weights["nobody"] = 8
				}
				rec = beginRecord(migKindReweight, "", "", weights)
			}

			logged, _, err := wire.DecodeLogRecord(wire.AppendLogRecord(nil, rec))
			if err != nil {
				t.Fatalf("%s: record round trip: %v", at, err)
			}
			var handle *Member
			if logged.MigKind == migKindJoin {
				if handle, err = factory(logged.Target, logged.Addr); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
			before := viewTable(driver, keys)
			dp, derr := driver.plan(rec, joining)
			fp, ferr := follower.plan(logged, handle)
			if (derr == nil) != (ferr == nil) {
				t.Fatalf("%s: driver plan error %v, follower plan error %v", at, derr, ferr)
			}
			if derr != nil {
				continue
			}
			if dp.kind != fp.kind || dp.target != fp.target || !reflect.DeepEqual(dp.moves, fp.moves) {
				t.Fatalf("%s: plans differ:\ndriver   %s %+v\nfollower %s %+v", at, dp.label(), dp.moves, fp.label(), fp.moves)
			}
			for _, k := range keys {
				if d, f := dp.next.Owners(k, rf), fp.next.Owners(k, rf); !reflect.DeepEqual(d, f) {
					t.Fatalf("%s: next-ring owners of %s differ: %v vs %v", at, k, d, f)
				}
			}
			same := func(stage string) tableView {
				t.Helper()
				d, f := viewTable(driver, keys), viewTable(follower, keys)
				if !reflect.DeepEqual(d, f) {
					t.Fatalf("%s: tables differ after %s:\ndriver   %v %v\nfollower %v %v", at, stage, d.nodes, d.duals, f.nodes, f.duals)
				}
				return d
			}
			if err := driver.enter(dp); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if err := follower.enter(fp); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			entered := same("enter")
			for _, mv := range dp.moves {
				if len(mv.adds) > 0 && !slices.ContainsFunc(entered.duals, func(d arcMove) bool { return reflect.DeepEqual(d, mv) }) {
					t.Fatalf("%s: enter did not publish the move (%x,%x] adding %v", at, mv.lo, mv.hi, mv.adds)
				}
			}
			if rng.Intn(3) == 0 {
				dd, fd := dropNames(driver.rollback(dp)), dropNames(follower.rollback(fp))
				if !reflect.DeepEqual(dd, fd) {
					t.Fatalf("%s: rollback drop targets differ: %v vs %v", at, dd, fd)
				}
				if after := same("rollback"); !reflect.DeepEqual(after, before) || len(after.duals) != 0 {
					t.Fatalf("%s: rollback of %s did not restore the table:\nbefore %v %v\nafter  %v %v",
						at, dp.label(), before.nodes, before.duals, after.nodes, after.duals)
				}
				continue
			}
			dd, fd := dropNames(driver.commit(dp)), dropNames(follower.commit(fp))
			if !reflect.DeepEqual(dd, fd) {
				t.Fatalf("%s: drop targets differ: %v vs %v", at, dd, fd)
			}
			after := same("commit")
			if len(after.duals) != 0 {
				t.Fatalf("%s: %d dual routes survive the commit", at, len(after.duals))
			}
			for i, k := range keys {
				if want := dp.next.Owners(k, rf); !reflect.DeepEqual(after.owners[i], want) || !reflect.DeepEqual(after.routed[i], want) {
					t.Fatalf("%s: %s routes to %v / %v after the commit, plan says %v", at, k, after.owners[i], after.routed[i], want)
				}
			}
			// A plan derived before the commit is stale now.
			if err := driver.enter(dp); err == nil {
				t.Fatalf("%s: table entered a plan derived from a superseded ring", at)
			}
		}
	}
}

// TestRoutingCommitWaitsForInFlightDelivery pins the grace period the
// routing lock provides: deliver holds the read side across its whole
// fan-out, so commit cannot swap the ring — and the driver cannot go on
// to empty the previous owners — while a batch routed by the old ring
// is still on its way to them.
func TestRoutingCommitWaitsForInFlightDelivery(t *testing.T) {
	entered := make(chan struct{}, 8) // one slot per member delivery; 3 members send at most 3
	unblock := make(chan struct{})
	var landed atomic.Int32
	var members []*Member
	for _, name := range []string{"n1", "n2", "n3"} {
		node := locserv.NewNodeService(locserv.NewSharded(4),
			func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
		members = append(members, &Member{Name: name, Node: node,
			Ingest: wire.NewLoopback(wire.SinkFunc(func(batch []wire.Record) error {
				entered <- struct{}{}
				<-unblock
				_, err := node.Deliver(batch)
				landed.Add(1)
				return err
			}))})
	}
	c, err := NewReplicated(0, 2, members...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.openPlan(beginRecord(migKindLeave, "n3", "", nil), nil)
	if err != nil {
		t.Fatal(err)
	}

	sent := make(chan error, 1)
	go func() { sent <- c.Send(1, repBatch(64, 1)) }()
	<-entered // routed by the old ring, in flight

	committed := make(chan int32, 1)
	go func() {
		c.commit(plan)
		committed <- landed.Load()
	}()
	select {
	case <-committed:
		t.Fatal("commit completed while a delivery routed by the old ring was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-committed:
		if n == 0 || n != landed.Load() {
			t.Fatalf("commit returned with %d of %d member deliveries landed", n, landed.Load())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit still blocked after the delivery finished")
	}
	if got := c.Nodes(); !reflect.DeepEqual(got, []string{"n1", "n2"}) {
		t.Fatalf("nodes after the leave commit: %v", got)
	}
}

// TestRouteSkipsRecordWithoutID: a record without an object id costs
// only itself. The coordinator routes and delivers the rest of its
// batch and answers POST /updates exactly as a standalone node does —
// 8 records, 7 applied, 1 error — at R=1 and R=2.
func TestRouteSkipsRecordWithoutID(t *testing.T) {
	factory := func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} }
	batch := func() []wire.Record {
		recs := make([]wire.Record, 8)
		for i := range recs {
			recs[i] = wire.Record{ID: fmt.Sprintf("obj-%d", i), Update: core.Update{
				Reason: core.ReasonDeviation,
				Report: core.Report{Seq: 1, Pos: geo.Pt(float64(i)*10, 0), V: 1},
			}}
		}
		recs[3].ID = ""
		return recs
	}
	post := func(h http.Handler) wire.IngestResponse {
		t.Helper()
		frame, err := wire.EncodeFrame(batch())
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/updates", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentType)
		h.ServeHTTP(w, req)
		var resp wire.IngestResponse
		if w.Code != http.StatusOK {
			t.Fatalf("POST /updates: %d %s", w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	want := wire.IngestResponse{Records: 8, Applied: 7, Errors: 1}
	if got := post(locserv.NewNodeService(locserv.New(), factory).Handler()); got != want {
		t.Fatalf("standalone node answers %+v, want %+v", got, want)
	}
	for _, rf := range []int{1, 2} {
		for _, via := range []string{"DeliverRecords", "POST /updates"} {
			t.Run(fmt.Sprintf("R=%d/%s", rf, via), func(t *testing.T) {
				members := make([]*Member, 4)
				for i := range members {
					members[i] = NewLocalMember(fmt.Sprintf("n%d", i), locserv.NewNodeService(locserv.New(), factory))
				}
				coord, err := NewReplicated(0, rf, members...)
				if err != nil {
					t.Fatal(err)
				}
				if via == "DeliverRecords" {
					applied, err := coord.DeliverRecords(batch())
					if applied != 7 || err == nil || !strings.Contains(err.Error(), "record 3 has no object id") {
						t.Fatalf("applied %d, err %v; want 7 and record 3 reported", applied, err)
					}
				} else if got := post(Handler(coord)); got != want {
					t.Fatalf("coordinator answers %+v, want %+v", got, want)
				}
				for i, rec := range batch() {
					if _, ok := coord.Position(locserv.ObjectID(rec.ID), 1); i != 3 && !ok {
						t.Fatalf("%s not delivered", rec.ID)
					}
				}
				if st := nodeStats(coord); st.UpdatesApplied != int64(7*rf) {
					t.Fatalf("members applied %d updates, want %d", st.UpdatesApplied, 7*rf)
				}
				for _, ms := range coord.MemberStats() {
					if ms.Hints.Hinted != 0 {
						t.Fatalf("member %s hinted %d records", ms.Name, ms.Hints.Hinted)
					}
				}
			})
		}
	}
}
