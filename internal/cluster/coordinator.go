package cluster

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/wire"
)

// Member is one cluster node: a name (its ring identity), its Node API
// and the update transport ingest batches ride on. Ingest may be nil,
// in which case the coordinator delivers through Node.Deliver directly
// (an in-process loopback). Addr is the member's reachable base URL
// when it has one — fan-in coordinators replicate it on join records
// so peers can build their own handle to the same node.
type Member struct {
	Name   string
	Node   locserv.Node
	Ingest wire.Transport
	Addr   string
}

// nodeLoopback returns the in-process update transport into node's
// batched delivery path. Its sink propagates per-record errors, so a
// clean send means every record landed.
func nodeLoopback(node *locserv.NodeService) *wire.Loopback {
	return wire.NewLoopback(wire.SinkFunc(func(batch []wire.Record) error {
		_, err := node.Deliver(batch)
		return err
	}))
}

// NewLocalMember returns a member over an in-process node: queries are
// direct method calls, ingest is the loopback transport into the
// node's batched delivery path.
func NewLocalMember(name string, node *locserv.NodeService) *Member {
	return &Member{Name: name, Node: node, Ingest: nodeLoopback(node)}
}

// NewLoopbackMember returns a member whose queries and admin calls ride
// the member stream in process (wire.NewStreamLoopback): every call is
// a stream frame the node answers as it would over a socket, checked as
// a socket answer is — the configuration the cluster-vs-single-process
// equivalence proof runs on: wire-level behaviour, deterministic
// delivery. Ingest, and the node's Deliver (handoff imports), use the
// codec-free loopback update transport.
func NewLoopbackMember(name string, node *locserv.NodeService) *Member {
	ingest := nodeLoopback(node)
	return &Member{
		Name:   name,
		Node:   NewRemoteNode(wire.NewStreamLoopback(wire.StreamServer{Query: node.QueryServer()}), ingest),
		Ingest: ingest,
	}
}

// NewHTTPMember returns a member reached over the network at the node's
// base URL: its queries, admin calls and ingest batches all ride one
// member stream (wire.Stream) — a long-lived connection opened with an
// HTTP/1.1 Upgrade on the node's own address and multiplexed, answers
// matched to their callers by request id. The connection is dialed on
// the first call and redialed after a failure; a node that refuses the
// upgrade fails the call, which the breaker counts like any other. The
// stream dials its own connection, so hc is not consulted; it stays in
// the signature for the callers that pass one.
func NewHTTPMember(name, baseURL string, hc *http.Client) *Member {
	stream := wire.NewStream(baseURL)
	return &Member{
		Name:   name,
		Node:   NewRemoteNode(stream, stream),
		Ingest: stream,
		Addr:   baseURL,
	}
}

// memberState pairs a member with the coordinator's routing counters
// and its replication health state: the consecutive-failure circuit
// breaker and the hint buffer that holds updates while the member is
// unreachable.
type memberState struct {
	*Member
	records atomic.Int64 // update records delivered to this member, hints included
	batches atomic.Int64 // Send calls that included this member
	queries atomic.Int64 // scatter/route calls against this member's node
	errors  atomic.Int64 // failed node calls

	consecFails  atomic.Int32     // breaker input: consecutive transport failures
	suspectFails atomic.Int32     // liveness input: consecutive failed heartbeats while up
	recoverOKs   atomic.Int32     // consecutive successful recovery probes while down
	down         atomic.Bool      // breaker state: skip this member, hint its updates
	probing      atomic.Bool      // a recovery probe is in flight
	downSince    atomic.Uint64    // coordinator clock (float bits) when the breaker tripped
	hintedAtDown atomic.Int64     // hints.Hinted at trip time, for the demotion record count
	hints        *wire.HintBuffer // updates awaiting the member's recovery
}

// health derives the member's detector state: Down while the breaker is
// open (Suspect once recovery probes have started to succeed), Suspect
// while heartbeats are failing but the breaker has not tripped, Up
// otherwise.
func (m *memberState) health() Health {
	switch {
	case m.down.Load() && m.recoverOKs.Load() > 0:
		return HealthSuspect
	case m.down.Load():
		return HealthDown
	case m.suspectFails.Load() > 0:
		return HealthSuspect
	default:
		return HealthUp
	}
}

func newMemberState(m *Member) *memberState {
	return &memberState{Member: m, hints: wire.NewHintBuffer(0)}
}

// hangUp drops the member's connection once the routing table no longer
// holds it (a leave committed, a join rolled back), so a departed member
// leaves no reader goroutine or socket behind; in-process transports
// have nothing to close. The handle stays usable should it rejoin.
func (m *memberState) hangUp() {
	if c, ok := m.Ingest.(io.Closer); ok {
		c.Close()
	}
}

// MemberStats is a per-member snapshot of the coordinator's routing
// counters plus the member node's own stats (zero NodeStats if the
// node was unreachable at snapshot time).
type MemberStats struct {
	Name    string
	Records int64
	Batches int64
	Queries int64
	Errors  int64
	// Down reports whether the member's circuit breaker is open.
	Down bool
	// Health is the liveness detector's view: up, suspect (failing
	// heartbeats, or down but partway through recovery) or down.
	Health Health
	// DownFor is how long (coordinator clock) the breaker has been open;
	// zero while the member is up.
	DownFor float64
	// Hints is the member's hinted-handoff buffer accounting.
	Hints wire.HintStats
	Node  locserv.NodeStats
}

// Coordinator fronts a cluster of location-service nodes: it implements
// the same ingest (wire.Transport), query (locserv.Querier) and
// registration (locserv.Registry) surfaces as a single sharded store,
// so simulations, benchmarks and the HTTP API run unchanged on top of
// either.
//
// Each key range is owned by a preference list of R distinct members
// (NewReplicated; New selects R = 1). Ingest batches are partitioned
// per member by the consistent-hash ring — every record is shipped to
// all R owners, safe because replicas are idempotent per (id, Seq) —
// and delivered in parallel over each member's update transport; a
// record is durable once any owner accepted it, so a single-node
// failure does not fail the batch. Nearest queries scatter to every
// live member — each node reduces its partition to a local top-k with
// a bounded heap, exactly like an in-process shard — and gather-merge
// on freshest Seq per object, then the (Dist, ID) total order,
// truncated to k; Within scatters and merges freshest-then-id; Position
// asks the owners in preference order and the highest Seq answers.
// Replicas observed answering stale are read-repaired in the
// background.
//
// Per-member health is a consecutive-failure circuit breaker: after
// breakerThreshold transport failures a member is marked down, queries
// degrade to the surviving replicas without error, and its updates park
// in a hint buffer that drains when a recovery probe reaches it again.
//
// Membership changes (AddNode, RemoveNode, Reweight and their Begin*
// variants) rebalance through the live migration engine (migration.go):
// preference-list diffs move one elementary ring arc at a time, each
// range dual-routed (old and new owners both written and read) while
// its snapshot copies across, so the routing lock is only held for O(1)
// pointer swaps and queries never observe a half-moved partition — or
// a blocked one.
type Coordinator struct {
	// The routing state and its lock (routing.go); Nodes, Owner, Owners
	// and Replicas are the embedded table's.
	*routingTable

	queries     atomic.Int64
	queryErrors atomic.Int64
	degraded    atomic.Int64 // queries served with a down member skipped
	repairs     atomic.Int64 // read-repair deliveries that landed
	flushes     atomic.Int64 // ingest operations, the probe pacing clock

	// Observability (obs.go): the coordinator's registry (the counters
	// above are bridged onto it), per-family query latency histograms,
	// the replica seq-divergence histogram, and the trace sampler+ring.
	obsReg      *obs.Registry
	qPositionH  *obs.Histogram
	qNearestH   *obs.Histogram
	qWithinH    *obs.Histogram
	divergenceH *obs.Histogram
	sampler     obs.Sampler
	traceRing   *obs.TraceRing

	clock atomic.Uint64            // float bits: highest transport/Tick time seen
	heal  atomic.Pointer[selfHeal] // self-healing membership state; nil = manual ops
	fanin atomic.Pointer[fanIn]    // multi-coordinator replication; nil = single front

	// Migration engine state (migration.go). migMu serializes runs and is
	// never waited for under the routing lock; mig is the in-flight or
	// halted run (written under migMu, read lock-free by stats).
	migMu        sync.Mutex
	mig          atomic.Pointer[migrationRun]
	migHook      migrationHook // test crash hook; set before Begin*/Resume
	migCommitted atomic.Int64
	migAborted   atomic.Int64
	migResumed   atomic.Int64
	migRecords   atomic.Int64
	migLast      atomic.Pointer[string]

	repairWG  sync.WaitGroup
	repairMu  sync.Mutex
	repairing map[locserv.ObjectID]bool
}

// now returns the coordinator's notion of the current transport clock:
// the highest now any Send, Flush or Tick has carried. Simulations run
// it on simulated seconds, servers on wall seconds — whichever clock
// the deployment ticks.
func (c *Coordinator) now() float64 { return math.Float64frombits(c.clock.Load()) }

// advanceClock moves the clock monotonically forward to now.
func (c *Coordinator) advanceClock(now float64) {
	for {
		cur := c.clock.Load()
		if math.Float64frombits(cur) >= now {
			return
		}
		if c.clock.CompareAndSwap(cur, math.Float64bits(now)) {
			return
		}
	}
}

// New returns an unreplicated coordinator (replication factor 1) over
// the given members. vnodes is the virtual-node count per member (<= 0
// selects DefaultVnodes).
func New(vnodes int, members ...*Member) (*Coordinator, error) {
	return NewReplicated(vnodes, 1, members...)
}

// NewReplicated returns a coordinator replicating every key range to
// replicas distinct members (capped at the member count; <= 0 selects
// 1). vnodes is the virtual-node count per member (<= 0 selects
// DefaultVnodes).
func NewReplicated(vnodes, replicas int, members ...*Member) (*Coordinator, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: need at least one member")
	}
	for _, m := range members {
		if m == nil || m.Node == nil {
			return nil, fmt.Errorf("cluster: nil member")
		}
	}
	table, err := newRoutingTable(vnodes, replicas, members...)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{routingTable: table, repairing: make(map[locserv.ObjectID]bool)}
	c.initObs()
	return c, nil
}

// predictorRegistrar is the optional in-process fast path: a node that
// can register with an explicit predictor (locserv.NodeService).
type predictorRegistrar interface {
	RegisterWith(id locserv.ObjectID, pred core.Predictor) error
}

// Register implements locserv.Registry: the object is registered on
// every member of its preference list. In-process nodes take the
// explicit predictor; remote nodes mint an equivalent one from their
// own factory (the cluster's shared-prediction-function contract).
// Registration succeeds when any replica accepted it — down or failing
// members catch up through hinted records and read repair (their
// factories auto-register on delivery).
func (c *Coordinator) Register(id locserv.ObjectID, pred core.Predictor) error {
	errs := c.callOwners(id, func(n locserv.Node) error {
		if pr, ok := n.(predictorRegistrar); ok && pred != nil {
			return pr.RegisterWith(id, pred)
		}
		return n.Register(id)
	})
	for _, err := range errs {
		if err == nil {
			return nil
		}
	}
	if _, err := foldErrs(errs); err != nil {
		return fmt.Errorf("cluster: register %q: %w", id, err)
	}
	return fmt.Errorf("cluster: no live replica for %q", id)
}

// Deregister implements locserv.Registry: the object is removed from
// every replica.
func (c *Coordinator) Deregister(id locserv.ObjectID) {
	c.callOwners(id, func(n locserv.Node) error { return n.Deregister(id) })
}

// callOwners runs one registry call against every live owner of id at
// once. A failure is counted but does not feed the breaker: a node
// turning a registration down (a duplicate, say) is answering.
func (c *Coordinator) callOwners(id locserv.ObjectID, call func(locserv.Node) error) []error {
	c.hold()
	defer c.release()
	_, errs := fanOut(c, c.ownersFor(nil, string(id)), nil, (*Coordinator).noteErr,
		func(_ *memberState, n locserv.Node) (struct{}, error) { return struct{}{}, call(n) })
	return errs
}

// errMemberDown fills the fan-out error slot of a member that was not
// called because its breaker is open.
var errMemberDown = errors.New("cluster: member down")

// fanOut is the coordinator's one way to call several members at once:
// call runs concurrently against every named member whose breaker is
// closed, and the results and errors come back indexed like names. A
// down member is not called and its error slot holds errMemberDown; a
// failed call's slot holds the error with the member named. note feeds
// each call's outcome to the member's health bookkeeping (noteQuery,
// noteCall, noteBeat or noteErr). With a non-nil tr the call is traced: the
// member's node is bound to the trace where it can be, and the hop is
// recorded on the query clock. Callers hold the routing table.
func fanOut[T any](c *Coordinator, names []string, tr *queryTrace,
	note func(*Coordinator, *memberState, error),
	call func(*memberState, locserv.Node) (T, error)) ([]T, []error) {
	out := make([]T, len(names))
	errs := make([]error, len(names))
	if tr != nil {
		tr.hops = make([]hop, len(names))
	}
	var wg sync.WaitGroup
	for i, name := range names {
		m := c.member(name)
		if m == nil {
			errs[i] = fmt.Errorf("cluster: unknown member %q", name)
			continue
		}
		if m.down.Load() {
			errs[i] = errMemberDown
			continue
		}
		wg.Add(1)
		go func(i int, m *memberState) {
			defer wg.Done()
			node := m.Node
			if tr != nil {
				node = tr.begin(i, m)
			}
			res, err := call(m, node)
			if tr != nil {
				tr.hops[i].end = time.Since(tr.start)
			}
			note(c, m, err)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: member %s: %w", m.Name, err)
				return
			}
			out[i] = res
		}(i, m)
	}
	wg.Wait()
	return out, errs
}

// foldErrs reduces a fan-out's error slots to whether any member was
// skipped as down and the joined errors of the calls that failed.
func foldErrs(errs []error) (skipped bool, err error) {
	var failed []error
	for _, e := range errs {
		if e == errMemberDown {
			skipped = true
		} else if e != nil {
			failed = append(failed, e)
		}
	}
	return skipped, errors.Join(failed...)
}

// deliver is the one routed-delivery body behind Send and
// DeliverRecords: the batch is partitioned per preference list and
// every owner's partition shipped in parallel by send, which reports
// how many records the member accounted for. Partitions for down
// members park in their hint buffers; a member failing its delivery is
// counted against its breaker and its partition is hinted too. applied
// is transport-level durability — records that reached at least one
// live replica — except that exact selects the members' own counts
// while partitions are disjoint. err joins the member failures and, if
// any record reached no live replica at all, says how many.
func (c *Coordinator) deliver(now float64, batch []wire.Record, exact bool,
	send func(m *memberState, part []wire.Record) (int, error)) (applied int, err error) {
	if len(batch) == 0 {
		return 0, nil
	}
	c.advanceClock(now)
	c.hold()
	defer c.release()
	scr := routePool.Get().(*routeScratch)
	defer releaseRouteScratch(scr)
	parts, err := c.route(scr, batch)
	if err != nil {
		return 0, err
	}
	targets := scr.targets
	counts, errs := fanOut(c, targets, nil, (*Coordinator).noteCall,
		func(m *memberState, _ locserv.Node) (int, error) {
			part := parts[m.Name]
			m.batches.Add(1)
			n, err := send(m, part)
			if err == nil { // a failed partition is counted when its hints land
				m.records.Add(int64(len(part)))
			}
			return n, err
		})
	failed := make(map[string]bool) // members that did not take their partition
	for i, name := range targets {
		if errs[i] == nil {
			applied += counts[i]
			continue
		}
		c.member(name).hints.AddAt(now, parts[name])
		failed[name] = true
	}
	c.maybeProbe()
	_, err = foldErrs(errs)
	if exact && c.disjoint() {
		// Unreplicated partitions are disjoint (no migration in flight, so
		// no dual-written overlap): the per-member counts sum to the exact
		// record-level accounting (records belonging to a registered or
		// registrable object; Seq gating is the replica's decision either
		// way — see locserv.Service.DeliverRecords).
		return applied, err
	}
	// Replicated partitions overlap, so per-member counts cannot be
	// summed per record. The strict seq-gated number stays on the nodes'
	// updates_applied counters (GET /stats, /cluster).
	applied = len(batch)
	if lost := c.lostRecords(batch, failed); lost > 0 {
		applied -= lost
		err = errors.Join(err, fmt.Errorf(
			"cluster: %d of %d records reached no live replica (hinted for recovery)", lost, len(batch)))
	}
	return applied, err
}

// Send implements wire.Transport: the batch is routed to every owner
// over the members' update transports (see deliver). Send fails only
// when some record reached no live replica at all; otherwise the failed
// members' copies are hinted and converge on recovery.
func (c *Coordinator) Send(now float64, batch []wire.Record) error {
	applied, err := c.deliver(now, batch, false, func(m *memberState, part []wire.Record) (int, error) {
		if m.Ingest != nil {
			return len(part), m.Ingest.Send(now, part)
		}
		return m.Node.Deliver(part)
	})
	if applied == len(batch) {
		return nil
	}
	return err
}

// Flush implements wire.Transport: every live member transport delivers
// what is due at now. Flush also paces the recovery probes for tripped
// members (see ProbeDown).
func (c *Coordinator) Flush(now float64) error {
	c.hold()
	_, errs := fanOut(c, c.scatterOrder(), nil, (*Coordinator).noteErr,
		func(m *memberState, _ locserv.Node) (struct{}, error) {
			if m.Ingest == nil {
				return struct{}{}, nil
			}
			return struct{}{}, m.Ingest.Flush(now)
		})
	c.release()
	c.advanceClock(now)
	c.maybeProbe()
	_, err := foldErrs(errs)
	return err
}

// maybeProbe schedules a background recovery probe every
// probeEveryFlushes ingest operations (Send, DeliverRecords or Flush —
// whichever clock the deployment actually ticks). Probes can block on
// network timeouts, so the ingest path never waits on them.
func (c *Coordinator) maybeProbe() {
	if c.flushes.Add(1)%probeEveryFlushes != 0 {
		return
	}
	go c.ProbeDown()
}

// Stats implements wire.Transport: the members' transport counters,
// summed.
func (c *Coordinator) Stats() wire.Stats {
	var total wire.Stats
	for _, m := range c.memberList() {
		if m.Ingest == nil {
			continue
		}
		st := m.Ingest.Stats()
		total.Sent += st.Sent
		total.Delivered += st.Delivered
		total.Dropped += st.Dropped
		total.BytesSent += st.BytesSent
		total.BytesDelivered += st.BytesDelivered
		total.Frames += st.Frames
		total.FrameBytes += st.FrameBytes
		total.Errors += st.Errors
		total.Retries += st.Retries
	}
	return total
}

// DeliverRecords routes records to every owner through the Node API
// (not the update transports), returning how many were accepted — the
// coordinator-side RecordSink for a cluster's HTTP ingest front door.
// Like Send, partitions for down or failing members are hinted, and
// only records with no live replica count as not applied.
func (c *Coordinator) DeliverRecords(recs []wire.Record) (applied int, err error) {
	return c.deliver(c.now(), recs, true, func(m *memberState, part []wire.Record) (int, error) {
		return m.Node.Deliver(part)
	})
}

// queryErr folds a query fan-out's error slots: a skipped down member
// marks the query degraded — its partitions answer from the surviving
// replicas — and failed members surface in the joined error.
func (c *Coordinator) queryErr(errs []error) error {
	skipped, err := foldErrs(errs)
	if skipped {
		c.degraded.Add(1)
	}
	return err
}

// scatter runs query against every live member concurrently and
// returns the per-member results in scatter order. Failing members
// yield nil parts, count toward their breaker and surface in the
// joined error. A sampled query (tr non-nil) takes this same path.
func (c *Coordinator) scatter(tr *queryTrace, query func(*memberState, locserv.Node) ([]locserv.ObjectPos, error)) ([][]locserv.ObjectPos, error) {
	parts, errs := fanOut(c, c.scatterOrder(), tr, (*Coordinator).noteQuery, query)
	return parts, c.queryErr(errs)
}

// gather is the scatter-gather query body: scatter query, merge the
// parts, histogram and read-repair the divergences the merge exposed,
// and record the latency under hist (and the trace, when sampled).
// When members fail, the surviving members' merged answer is still
// returned alongside the error, so callers choose between strictness
// and degraded availability.
func (c *Coordinator) gather(op string, hist *obs.Histogram, t float64,
	query func(*memberState, locserv.Node) ([]locserv.ObjectPos, error),
	merge func([][]locserv.ObjectPos) ([]locserv.ObjectPos, []locserv.Divergence)) ([]locserv.ObjectPos, error) {
	start := time.Now()
	tr := c.sampleTrace(start)
	c.hold()
	defer c.release()
	c.queries.Add(1)
	parts, err := c.scatter(tr, query)
	if err != nil {
		c.queryErrors.Add(1)
	}
	mergeStart := time.Since(start)
	hits, stale := merge(parts)
	for _, d := range stale {
		c.divergenceH.Record(float64(d.FreshSeq - d.MinStaleSeq))
	}
	c.scheduleRepairs(stale)
	dur := time.Since(start)
	hist.RecordDur(dur)
	tr.finish(c.traceRing, op, t, mergeStart, dur)
	return hits, err
}

// NearestE scatters a k-nearest query to every live member and merges:
// freshest Seq per object first (replicas can answer in duplicate),
// then the same (Dist, ID) order the in-process shard merge uses. See
// gather for the failure contract.
func (c *Coordinator) NearestE(p geo.Point, k int, t float64) ([]locserv.ObjectPos, error) {
	if k <= 0 {
		return nil, nil
	}
	return c.gather("nearest", c.qNearestH, t,
		func(_ *memberState, n locserv.Node) ([]locserv.ObjectPos, error) { return n.Nearest(p, k, t) },
		func(parts [][]locserv.ObjectPos) ([]locserv.ObjectPos, []locserv.Divergence) {
			return locserv.MergeNearest(parts, k)
		})
}

// WithinE scatters a range query to every live member and merges by
// freshest Seq, then id. See gather for the failure contract.
func (c *Coordinator) WithinE(r geo.Rect, t float64) ([]locserv.ObjectPos, error) {
	return c.gather("within", c.qWithinH, t,
		func(_ *memberState, n locserv.Node) ([]locserv.ObjectPos, error) { return n.Within(r, t) },
		locserv.MergeWithin)
}

// posAnswer is one owner's reply to a position query.
type posAnswer struct {
	pos geo.Point
	seq uint32
	ok  bool // object known and reported
}

// PositionE asks id's owners concurrently and answers with the
// freshest replica (highest Seq; ties go to the earliest owner in
// preference order, so the merge is deterministic). Down members are
// skipped; members failing the call count toward their breaker and
// another owner answers instead, so a single-replica failure never
// fails the query. The error is non-nil only when every owner was
// unreachable.
func (c *Coordinator) PositionE(id locserv.ObjectID, t float64) (geo.Point, bool, error) {
	start := time.Now()
	tr := c.sampleTrace(start)
	c.hold()
	defer c.release()
	c.queries.Add(1)
	var buf [4]string // R owners plus a dual add fit without allocating
	owners := c.ownersFor(buf[:0], string(id))
	if len(owners) == 0 {
		c.queryErrors.Add(1)
		return geo.Point{}, false, fmt.Errorf("cluster: no member owns %q", id)
	}
	answers, errs := fanOut(c, owners, tr, (*Coordinator).noteQuery,
		func(_ *memberState, n locserv.Node) (posAnswer, error) {
			p, seq, ok, err := n.Position(id, t)
			return posAnswer{p, seq, ok}, err
		})
	err := c.queryErr(errs)
	dur := time.Since(start)
	c.qPositionH.RecordDur(dur)
	tr.finish(c.traceRing, "position", t, dur, dur)
	best := -1
	anyLive := false
	for i, a := range answers {
		if errs[i] != nil {
			continue
		}
		anyLive = true
		if a.ok && (best < 0 || a.seq > answers[best].seq) {
			best = i
		}
	}
	if !anyLive {
		c.queryErrors.Add(1)
		if err != nil {
			return geo.Point{}, false, err
		}
		return geo.Point{}, false, fmt.Errorf("cluster: no live replica for %q", id)
	}
	if best < 0 {
		return geo.Point{}, false, nil
	}
	var staleMembers []*memberState
	for i, a := range answers {
		if i == best || errs[i] != nil {
			continue
		}
		if !a.ok || a.seq < answers[best].seq {
			staleMembers = append(staleMembers, c.member(owners[i]))
			if a.ok {
				c.divergenceH.Record(float64(answers[best].seq - a.seq))
			}
		}
	}
	if len(staleMembers) > 0 {
		c.spawnRepair(id, c.member(owners[best]), staleMembers)
	}
	return answers[best].pos, true, nil
}

// Nearest implements locserv.Querier; member failures degrade to the
// surviving members' merged answer (the error is counted — see
// QueryErrors — and surfaced by NearestE).
func (c *Coordinator) Nearest(p geo.Point, k int, t float64) []locserv.ObjectPos {
	hits, _ := c.NearestE(p, k, t)
	return hits
}

// Within implements locserv.Querier.
func (c *Coordinator) Within(r geo.Rect, t float64) []locserv.ObjectPos {
	hits, _ := c.WithinE(r, t)
	return hits
}

// Position implements locserv.Querier.
func (c *Coordinator) Position(id locserv.ObjectID, t float64) (geo.Point, bool) {
	p, ok, _ := c.PositionE(id, t)
	return p, ok
}

// QueryErrors returns how many scatter/route queries failed.
func (c *Coordinator) QueryErrors() int64 { return c.queryErrors.Load() }

// Queries returns how many queries the coordinator served.
func (c *Coordinator) Queries() int64 { return c.queries.Load() }

// DegradedQueries returns how many queries were answered with at least
// one down member skipped (the surviving replicas carried them).
func (c *Coordinator) DegradedQueries() int64 { return c.degraded.Load() }

// Repairs returns how many read-repair deliveries landed on stale
// replicas.
func (c *Coordinator) Repairs() int64 { return c.repairs.Load() }

// NodeStats sums the live members' node stats: the view of the
// coordinator's merged metrics snapshot that GET /stats serves. Down
// and unreachable members contribute nothing.
func (c *Coordinator) NodeStats() locserv.NodeStats {
	snap, _ := c.ObsSnapshot()
	return locserv.NodeStatsOf(snap)
}

// MemberStats snapshots the coordinator's per-member routing counters
// and each member's node stats, in scatter order. Down members keep a
// zero NodeStats (they are not probed here). The node round trips run
// outside the routing lock, so a slow scrape never queues a membership
// change — and with it every query — behind the network.
func (c *Coordinator) MemberStats() []MemberStats {
	members := c.memberList()
	out := make([]MemberStats, 0, len(members))
	for _, m := range members {
		ms := MemberStats{
			Name:    m.Name,
			Records: m.records.Load(),
			Batches: m.batches.Load(),
			Queries: m.queries.Load(),
			Errors:  m.errors.Load(),
			Down:    m.down.Load(),
			Health:  m.health(),
			Hints:   m.hints.Stats(),
		}
		if ms.Down {
			if since := math.Float64frombits(m.downSince.Load()); c.now() > since {
				ms.DownFor = c.now() - since
			}
		} else if st, err := m.Node.NodeStats(); err == nil {
			ms.Node = st
		} else {
			m.errors.Add(1)
			ms.Errors++
		}
		out = append(out, ms)
	}
	return out
}

// AddNode, RemoveNode, Reweight and their non-blocking Begin* variants
// live in migration.go: membership changes run through the live
// migration engine, range at a time under dual routing, so none of them
// ever holds the routing lock across data movement.
