package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/obs"
	"mapdr/internal/stats"
	"mapdr/internal/wire"
)

// drills is the dispatch table of the cluster experiments: main looks
// -exp up in it, the -exp help lists it, the tests and the CI smoke step
// iterate it. Each run function's doc comment says what the drill
// injects and what it asserts.
var drills = []*drill{
	{
		name:     "cluster",
		minNodes: 1, minReplicas: 1, why: "a cluster has at least one member holding each key range",
		replicas: 1,
		run:      clusterDrill,
	},
	{
		name:     "failover",
		minNodes: 2, minReplicas: 2, why: "one member is killed, and a lost R=1 partition cannot answer",
		replicas: 2,
		phases:   []string{"healthy", "node down", "recovered"},
		run:      failoverDrill,
	},
	{
		name:     "selfheal",
		minNodes: 3, minReplicas: 2, why: "the demotion must leave a replicated cluster and lose no R=1 partition",
		replicas: 2,
		phases:   []string{"healthy", "down (detecting)", "demoted"},
		run:      selfhealDrill,
	},
	{
		name:     "chaos",
		minNodes: 4, minReplicas: 2, why: "it removes two members mid-run, and a lost R=1 partition cannot survive the kill",
		replicas: 2,
		phases:   []string{"steady", "join + loss burst", "churn (leave, kill, spike)", "reweighted tail"},
		run:      chaosDrill,
	},
	{
		name:     "fanin",
		minNodes: 2, minReplicas: 1, why: "the join rebalances ranges off existing members",
		replicas: 2,
		fronts:   2,
		phases:   []string{"steady two-front", "driver down (orphaned join)", "stolen + resumed"},
		run:      faninDrill,
	},
}

// simClockSelfHeal is the self-healing config the fault drills run on
// the simulated clock: heartbeats every simulated second, a single
// missed beat trips (the fleet ticks in lockstep, so the detector fires
// before the same tick's probe queries), and the hint deadline is 15% of
// the trace — a demotion lands mid-run with plenty of trace left to
// measure the amputated cluster. The reweight loop stays off unless the
// drill arms it.
func simClockSelfHeal(tEnd float64) cluster.SelfHealConfig {
	return cluster.SelfHealConfig{HeartbeatEvery: 1, SuspectAfter: 1, RecoverAfter: 2, DemoteAfter: 0.15 * tEnd}
}

// clusterDrill drives the fleet against a partition-aware cluster: N
// in-process nodes behind a consistent-hash coordinator that routes each
// ingest batch per partition and scatter-gathers the queries. Every
// simulated second issues a 10-NN scatter-gather query whose wall-clock
// latency feeds the tail-latency report; per-node routed records and
// applied updates show the partition balance. It injects nothing and
// asserts nothing beyond running clean.
func clusterDrill(l *lab) error {
	coord := l.fronts[0]
	// Every query's wall-clock cost is recorded — an empty answer still
	// paid for the scatter and the merge — in the same log-bucketed
	// histogram the servers expose on /metrics, so the reported
	// percentiles use one quantile implementation across the repo.
	qLat := obs.NewHistogram("drsim_10nn_seconds", "", obs.TicksSeconds)
	qPoints := []geo.Point{geo.Pt(2500, 2500), geo.Pt(5000, 5000), geo.Pt(7500, 2500), geo.Pt(2500, 7500)}
	err := l.drive(coord, coord, func(t float64) {
		q0 := time.Now()
		coord.Nearest(qPoints[int(t)%len(qPoints)], 10, t)
		qLat.RecordDur(time.Since(q0))
	})
	if err != nil {
		return err
	}

	qs := qLat.Snapshot()
	tb := stats.NewTable("nodes", "R", "vehicles", "shards/node", "workers", "samples", "updates",
		"mean err [m]", "wall [ms]", "samples/s", "10NN p50 [us]", "p95 [us]", "p99 [us]")
	tb.AddRow(l.cfg.nodes, l.cfg.replicas, l.cfg.n, l.cfg.shards, l.cfg.workers, l.res.Samples, l.updates,
		l.res.MeanErr, l.wall.Milliseconds(), float64(l.res.Samples)/l.wall.Seconds(),
		qs.Quantile(0.50)*1e6, qs.Quantile(0.95)*1e6, qs.Quantile(0.99)*1e6)
	// Partition balance: records the coordinator routed to each node and
	// what the node's store actually applied.
	nt := stats.NewTable("node", "objects", "routed records", "batches", "applied", "errors")
	for _, ms := range coord.MemberStats() {
		nt.AddRow(ms.Name, ms.Node.Objects, ms.Records, ms.Batches, ms.Node.UpdatesApplied, ms.Errors)
	}
	return l.emit(tb, nt)
}

// failoverDrill measures what a node crash costs an R-replicated
// cluster. At 40% of the run the last member is killed; at 75% it
// recovers and is probed back up, draining its hinted updates. The
// report gives answer availability and staleness per phase plus the
// hinted-handoff and read-repair accounting; it asserts nothing beyond
// running clean.
func failoverDrill(l *lab) error {
	coord := l.fronts[0]
	victim := l.cfg.nodes - 1
	killT, reviveT := 0.4*l.tEnd, 0.75*l.tEnd
	err := l.drive(coord, coord, func(t float64) {
		if l.phase == 0 && t >= killT {
			l.injectors[victim].Fail()
			l.phase = 1
		}
		if l.phase == 1 && t >= reviveT {
			l.injectors[victim].Recover()
			coord.ProbeDown() // verified recovery + hint drain
			l.phase = 2
		}
		l.probe(coord, t)
	})
	if err != nil {
		return err
	}
	coord.ProbeDown()
	coord.WaitRepairs()

	l.notef("failover: %d nodes, R=%d, victim %s down over t=[%.0f,%.0f) of %.0f s",
		l.cfg.nodes, l.cfg.replicas, nodeName(victim), killT, reviveT, l.tEnd)
	return l.emit(l.phaseTable(),
		l.summaryTable([]string{"degraded queries", "read repairs"}, coord.DegradedQueries(), coord.Repairs()),
		l.nodeTable(coord))
}

// selfhealDrill is the no-operator failover run: the last member is
// killed at 40% of the trace and nobody calls MarkDown, ProbeDown or
// RemoveNode — the self-healing membership has to notice (heartbeat
// detector), route around (breaker + hints) and amputate (auto-demotion
// past the hint deadline) on its own, with the reweight controller armed
// throughout. The run fails unless the victim ends demoted, every query
// answered without error, and the surviving cluster's answers are
// bit-identical to the reference.
func selfhealDrill(l *lab) error {
	coord := l.fronts[0]
	victim := l.cfg.nodes - 1
	killT := 0.4 * l.tEnd
	healCfg := simClockSelfHeal(l.tEnd)
	healCfg.ReweightEvery, healCfg.ReweightRatio, healCfg.ReweightAfter = 0.25*l.tEnd, 4, 2
	coord.EnableSelfHeal(healCfg)
	demotedAt := -1.0
	err := l.drive(coord, coord, func(t float64) {
		if l.phase == 0 && t >= killT {
			l.injectors[victim].Fail() // the only intervention: the crash itself
			l.phase = 1
		}
		coord.Tick(t) // the self-healing loops run on the sim clock
		if l.phase == 1 && coord.SelfHealStats().Demotions > 0 {
			l.phase = 2
			demotedAt = t
		}
		l.probe(coord, t)
	})
	if err != nil {
		return err
	}
	coord.ProbeDown() // final hint sweep (a drain, not a recovery — the victim is gone)
	coord.WaitRepairs()

	// The acceptance assertions: demoted, zero query errors, converged.
	heal := coord.SelfHealStats()
	if !slices.Contains(heal.Demoted, nodeName(victim)) || len(coord.Nodes()) != l.cfg.nodes-1 {
		return fmt.Errorf("victim %s was not auto-demoted (members %v, demoted %v)",
			nodeName(victim), coord.Nodes(), heal.Demoted)
	}
	if qe := coord.QueryErrors(); qe != 0 {
		return fmt.Errorf("%d query errors; the detector let queries hit the dead member", qe)
	}
	if err := l.converged(coord); err != nil {
		return err
	}

	l.notef("selfheal: %d nodes, R=%d, victim %s killed at t=%.0f s, auto-demoted at t=%.0f s (deadline %.0f s), %.0f s trace",
		l.cfg.nodes, l.cfg.replicas, nodeName(victim), killT, demotedAt, healCfg.DemoteAfter, l.tEnd)
	l.notef("converged bit-identical to the no-failure reference; zero query errors")
	return l.emit(l.phaseTable(),
		l.summaryTable([]string{"heartbeats", "trips", "demotions", "reweights", "degraded queries", "read repairs"},
			heal.Heartbeats, heal.Trips, heal.Demotions, heal.Reweights, coord.DegradedQueries(), coord.Repairs()),
		l.nodeTable(coord))
}

// timedTransport records the longest wall-clock Send through the
// cluster — the chaos drill's proxy for an ingest blocking window: if a
// membership change ever held the routing lock across a data copy, one
// Send would stall for the whole copy and this maximum would show it.
// The fleet sends from its coordinating goroutine only, so the maximum
// needs no synchronisation.
type timedTransport struct {
	wire.Transport
	slowest *time.Duration
}

func (t timedTransport) Send(now float64, batch []wire.Record) error {
	t0 := time.Now()
	err := t.Transport.Send(now, batch)
	*t.slowest = max(*t.slowest, time.Since(t0))
	return err
}

// chaosDrill is the everything-at-once elasticity drill: under full
// ingest and query load a scripted ChaosPlan joins a new member, fires a
// 50% loss burst at one node, removes another through a live leave
// migration, kills a third (the self-healing membership must detect and
// demote it with no operator), spikes a fourth's latency, and finally
// reweights the survivors. Every membership change rides the incremental
// migration engine, so the run hard-asserts the zero-downtime contract:
// zero query errors, per-phase staleness within the u_s bound,
// routing-lock holds and Send stalls bounded, and a post-quiesce store
// bit-identical to the reference.
func chaosDrill(l *lab) error {
	coord := l.fronts[0]
	tEnd := l.tEnd
	const leaver, killed, lossy, slow = 0, 1, 2, 3 // member indices by role
	// The demotion deadline outlasts the loss burst (a breaker flap must
	// not demote the lossy member) but lands the killed member's demotion
	// well before the final reweight.
	coord.EnableSelfHeal(simClockSelfHeal(tEnd))

	joinName := nodeName(l.cfg.nodes)
	joinNode := l.newNode()
	joinMember, _ := cluster.NewFaultyMember(joinName, joinNode)

	// Membership actions begun by chaos events. The engine accepts one
	// run at a time, so each action retries on ErrMigrationBusy every
	// tick until its turn (exactly how the self-heal loops behave); the
	// handles are verified after quiesce.
	type action struct {
		name  string
		begin func() (*cluster.Migration, error)
		mig   *cluster.Migration
	}
	var todo, begun []action
	var actionErrs []error
	// change is a plan event that queues one membership action.
	change := func(at float64, name string, begin func() (*cluster.Migration, error)) cluster.ChaosEvent {
		return cluster.ChaosEvent{At: at * tEnd, Name: name,
			Do: func() { todo = append(todo, action{name: name, begin: begin}) }}
	}
	pump := func() {
		for len(todo) > 0 {
			a := todo[0]
			var err error
			a.mig, err = a.begin()
			if errors.Is(err, cluster.ErrMigrationBusy) || errors.Is(err, cluster.ErrMigrationHalted) {
				return // engine occupied; retry next tick
			}
			if err != nil {
				actionErrs = append(actionErrs, fmt.Errorf("%s: %w", a.name, err))
			} else {
				begun = append(begun, a)
			}
			todo = todo[1:]
		}
	}

	plan := cluster.NewChaosPlan(
		change(0.15, "join "+joinName, func() (*cluster.Migration, error) { return coord.BeginAddNode(joinMember) }),
		cluster.ChaosEvent{At: 0.30 * tEnd, Name: "loss burst " + nodeName(lossy),
			Do: func() { l.injectors[lossy].SetLossRate(0.5, l.cfg.seed) }},
		cluster.ChaosEvent{At: 0.38 * tEnd, Name: "loss burst ends",
			Do: func() { l.injectors[lossy].SetLossRate(0, 0) }},
		change(0.45, "leave "+nodeName(leaver), func() (*cluster.Migration, error) {
			return coord.BeginRemoveNode(nodeName(leaver))
		}),
		cluster.ChaosEvent{At: 0.55 * tEnd, Name: "kill " + nodeName(killed),
			Do: func() { l.injectors[killed].Fail() }}, // no operator call: self-heal must demote it
		cluster.ChaosEvent{At: 0.70 * tEnd, Name: "latency spike " + nodeName(slow),
			Do: func() { l.injectors[slow].SetLatency(50 * time.Microsecond) }},
		cluster.ChaosEvent{At: 0.80 * tEnd, Name: "latency spike ends",
			Do: func() { l.injectors[slow].SetLatency(0) }},
		change(0.82, "reweight survivors", func() (*cluster.Migration, error) {
			return coord.BeginReweight(cluster.BalancedWeights(cluster.DefaultVnodes, coord.MemberStats()))
		}),
	)

	var slowestSend time.Duration
	err := l.drive(timedTransport{Transport: coord, slowest: &slowestSend}, coord, func(t float64) {
		plan.Advance(t) // faults first, so the same tick's detector sees them
		pump()
		coord.Tick(t)
		switch {
		case t >= 0.82*tEnd:
			l.phase = 3
		case t >= 0.45*tEnd:
			l.phase = 2
		case t >= 0.15*tEnd:
			l.phase = 1
		}
		l.probe(coord, t)
	})
	if err != nil {
		return err
	}

	// Quiesce: stop all injection (the demoted victim stays demoted —
	// this only silences the faults), let late-begun migrations finish,
	// drain hints, wait out repairs.
	for _, inj := range l.injectors {
		inj.Recover()
		inj.SetLossRate(0, 0)
		inj.SetLatency(0)
	}
	for i := 0; i < 1000 && len(todo) > 0; i++ {
		pump()
		time.Sleep(time.Millisecond)
	}
	if len(todo) > 0 {
		return fmt.Errorf("%d membership actions never started (engine busy to the end)", len(todo))
	}
	if len(actionErrs) > 0 {
		return errors.Join(actionErrs...)
	}
	for _, a := range begun {
		if err := a.mig.Wait(); err != nil {
			return fmt.Errorf("%s halted: %w", a.name, err)
		}
	}
	coord.ProbeDown()
	coord.WaitRepairs()

	// The acceptance assertions.
	if rem := plan.Remaining(); rem != 0 {
		return fmt.Errorf("%d scheduled events never fired", rem)
	}
	mig := coord.MigrationStats()
	if mig.Active {
		return fmt.Errorf("a migration is still active after quiesce (%s %s)", mig.Kind, mig.Target)
	}
	if qe := coord.QueryErrors(); qe != 0 {
		return fmt.Errorf("%d query errors under churn, want zero", qe)
	}
	heal := coord.SelfHealStats()
	if !slices.Contains(heal.Demoted, nodeName(killed)) {
		return fmt.Errorf("killed member %s was not auto-demoted (demoted %v)", nodeName(killed), heal.Demoted)
	}
	names := coord.Nodes()
	if len(names) != l.cfg.nodes-1 {
		return fmt.Errorf("membership %v, want %d members after join %s, leave %s, demote %s",
			names, l.cfg.nodes-1, joinName, nodeName(leaver), nodeName(killed))
	}
	for _, gone := range []string{nodeName(leaver), nodeName(killed)} {
		if slices.Contains(names, gone) {
			return fmt.Errorf("departed member %s still in the cluster %v", gone, names)
		}
	}
	if joinNode.Service().Len() == 0 {
		return fmt.Errorf("joined member %s holds no replicas", joinName)
	}
	if mig.Migrations < 4 {
		return fmt.Errorf("%d committed migrations, want >= 4 (join, leave, demotion, reweight)", mig.Migrations)
	}
	if maxSwap := time.Duration(mig.MaxSwapNanos); maxSwap > 50*time.Millisecond {
		return fmt.Errorf("routing lock held %v during a migration swap; swaps must be O(1)", maxSwap)
	}
	if slowestSend > 2*time.Second {
		return fmt.Errorf("slowest Send stalled %v; membership changes must not block ingest", slowestSend)
	}
	if err := l.staleWithinBound(); err != nil {
		return err
	}
	if err := l.converged(coord); err != nil {
		return err
	}

	l.notef("chaos: %d nodes -> %v, R=%d over %.0f s trace", l.cfg.nodes, names, l.cfg.replicas, tEnd)
	l.notef("events: %s", strings.Join(plan.Fired(), "; "))
	l.notef("zero query errors; converged bit-identical to the no-failure reference")
	l.notef("max routing-lock hold %.3f ms; slowest Send %.3f ms",
		float64(mig.MaxSwapNanos)/1e6, float64(slowestSend.Nanoseconds())/1e6)
	return l.emit(l.phaseTable(),
		l.summaryTable([]string{"migrations", "records moved", "demotions", "degraded queries", "read repairs"},
			mig.Migrations, mig.TotalRecordsMoved, heal.Demotions, coord.DegradedQueries(), coord.Repairs()),
		l.nodeTable(coord))
}

// twoFront is the ingest/query surface of the fan-in drill: update
// batches and queries alternate across two coordinators while both are
// live, and fail over to co-b alone once co-a is declared dead. Both
// fronts fold the same replicated membership log, so the split stays
// consistent even mid-migration.
type twoFront struct {
	a, b  *cluster.Coordinator
	aLive atomic.Bool
	// One alternation counter per traffic class: ingest batches, the
	// fleet's error-accounting reads, the lab's probe ticks.
	sends, reads, probes atomic.Int64
}

func (f *twoFront) front(n *atomic.Int64) *cluster.Coordinator {
	if f.aLive.Load() && n.Add(1)%2 == 0 {
		return f.a
	}
	return f.b
}

func (f *twoFront) Send(now float64, batch []wire.Record) error {
	return f.front(&f.sends).Send(now, batch)
}

func (f *twoFront) Flush(now float64) error {
	if f.aLive.Load() {
		if err := f.a.Flush(now); err != nil {
			return err
		}
	}
	return f.b.Flush(now)
}

func (f *twoFront) Stats() wire.Stats {
	sa, sb := f.a.Stats(), f.b.Stats()
	return wire.Stats{
		Sent: sa.Sent + sb.Sent, Delivered: sa.Delivered + sb.Delivered, Dropped: sa.Dropped + sb.Dropped,
		BytesSent: sa.BytesSent + sb.BytesSent, BytesDelivered: sa.BytesDelivered + sb.BytesDelivered,
		Frames: sa.Frames + sb.Frames, FrameBytes: sa.FrameBytes + sb.FrameBytes,
		Errors: sa.Errors + sb.Errors, Retries: sa.Retries + sb.Retries,
	}
}

func (f *twoFront) Position(id locserv.ObjectID, t float64) (geo.Point, bool) {
	return f.front(&f.reads).Position(id, t)
}

func (f *twoFront) Nearest(p geo.Point, k int, t float64) []locserv.ObjectPos {
	return f.front(&f.reads).Nearest(p, k, t)
}

func (f *twoFront) Within(r geo.Rect, t float64) []locserv.ObjectPos {
	return f.front(&f.reads).Within(r, t)
}

// faninDrill is the multi-coordinator recovery drill: two fan-in
// coordinators front the same cluster, splitting the fleet's ingest and
// queries between them while gossiping the replicated membership log.
// At 35% of the trace co-a acquires the fenced lease and begins a live
// join; an injected crash kills its driver at the second range copy and
// co-a goes dark — no ticks, no abort, no operator. Its Begin record is
// already on the log, so co-b keeps dual routing the orphaned run; once
// the dead leader's lease expires co-b steals it, rebuilds the run from
// the log and drives it to commit. The run asserts the steal and the
// resume happened, the joined member serves its ranges, zero query
// errors on both fronts, identical membership logs, and a post-quiesce
// store bit-identical to the reference.
func faninDrill(l *lab) error {
	ca, cb := l.fronts[0], l.fronts[1]
	tEnd := l.tEnd
	migT := 0.35 * tEnd
	leaseFor := 0.08 * tEnd // a twelfth of the trace: plenty of tail to measure the recovered cluster

	joinName := nodeName(l.cfg.nodes)
	joinNode := l.newNode()
	factory := func(name, addr string) (*cluster.Member, error) {
		if name != joinName {
			return nil, fmt.Errorf("no local handle for joining member %q", name)
		}
		return cluster.NewLocalMember(name, joinNode), nil
	}
	// The reweight controller is parked past the trace end so the
	// scripted join is the only membership change.
	healCfg := simClockSelfHeal(tEnd)
	healCfg.ReweightEvery, healCfg.ReweightRatio, healCfg.ReweightAfter = 10*tEnd, 4, 2
	for _, co := range l.fronts {
		co.EnableSelfHeal(healCfg)
	}
	fanCfg := cluster.FanInConfig{LeaseFor: leaseFor, GossipEvery: 1, MemberFactory: factory}
	ca.EnableFanIn("co-a", fanCfg)
	cb.EnableFanIn("co-b", fanCfg)
	if err := ca.AddPeerCoordinator("co-b", wire.NewStreamLoopback(wire.StreamServer{Peer: cb.ServePeer})); err != nil {
		return err
	}
	if err := cb.AddPeerCoordinator("co-a", wire.NewStreamLoopback(wire.StreamServer{Peer: ca.ServePeer})); err != nil {
		return err
	}

	tf := &twoFront{a: ca, b: cb}
	tf.aLive.Store(true)
	killedAt, stolenAt := -1.0, -1.0
	var migErr error
	err := l.drive(tf, tf, func(t float64) {
		if l.phase == 0 && t >= migT && migErr == nil {
			// The scripted crash: co-a begins the join, its driver is
			// killed at the second range copy, and from this tick on
			// co-a is dead — no ticks, no sends, no queries, no abort.
			ca.CrashMigrationAfterCopies(2)
			mig, err := ca.BeginAddNode(cluster.NewLocalMember(joinName, joinNode))
			if err != nil {
				migErr = fmt.Errorf("begin join on co-a: %w", err)
			} else if werr := mig.Wait(); werr == nil {
				migErr = fmt.Errorf("the injected driver crash never fired")
			}
			tf.aLive.Store(false)
			killedAt = t
			l.phase = 1
		}
		if tf.aLive.Load() {
			ca.Tick(t)
		}
		cb.Tick(t)
		if l.phase == 1 && cb.FanInStats().Resumes > 0 {
			stolenAt = t
			l.phase = 2
		}
		l.probe(tf.front(&tf.probes), t)
	})
	if err != nil {
		return err
	}
	// The stolen run re-copies and commits in a background goroutine
	// (Tick never blocks on a copy), so give the drive a bounded window
	// to land — ticking the sim clock forward so lease renewals and the
	// commit gossip keep flowing — before asserting converged state.
	deadline := time.Now().Add(30 * time.Second)
	for t := tEnd; cb.FanInStats().Resumes > 0 && time.Now().Before(deadline); t++ {
		ms := cb.MigrationStats()
		if !ms.Active && ms.Migrations >= 1 && cb.FanInStats().OpenRuns == 0 {
			break
		}
		cb.Tick(t)
		time.Sleep(2 * time.Millisecond)
	}
	cb.ProbeDown()
	cb.WaitRepairs()

	// The acceptance assertions: the crash fired, the surviving front
	// stole the lease and committed the orphaned join, zero query
	// errors, identical logs, converged stores.
	if migErr != nil {
		return migErr
	}
	if killedAt < 0 {
		return fmt.Errorf("the trace ended before the scripted join at t=%.0f s", migT)
	}
	fst := cb.FanInStats()
	if fst.Steals < 1 || fst.Resumes < 1 || fst.OpenRuns != 0 {
		return fmt.Errorf("co-b never recovered the orphaned run (steals %d, resumes %d, open runs %d)",
			fst.Steals, fst.Resumes, fst.OpenRuns)
	}
	ms := cb.MigrationStats()
	if ms.Active || ms.Migrations != 1 {
		return fmt.Errorf("resumed join not committed on co-b (active %v, committed %d)", ms.Active, ms.Migrations)
	}
	if got := len(cb.Nodes()); got != l.cfg.nodes+1 {
		return fmt.Errorf("co-b serves %d members after the resumed join, want %d", got, l.cfg.nodes+1)
	}
	if qe := ca.QueryErrors() + cb.QueryErrors(); qe != 0 {
		return fmt.Errorf("%d query errors across the two fronts, want zero", qe)
	}
	if !wire.EqualLogs(ca.MembershipLog(), cb.MembershipLog()) {
		return fmt.Errorf("the membership logs diverged between the fronts")
	}
	if err := l.converged(cb); err != nil {
		return err
	}
	onJoin := 0
	for i := range l.objs {
		if !slices.Contains(cb.Owners(l.objs[i].ID), joinName) {
			continue
		}
		onJoin++
		if !joinNode.Service().Contains(l.objs[i].ID) {
			return fmt.Errorf("%s routed to %s but the joined node does not hold it", l.objs[i].ID, joinName)
		}
	}
	if onJoin == 0 {
		return fmt.Errorf("the resumed join moved no fleet objects onto %s", joinName)
	}

	l.notef("fanin: %d nodes, R=%d, fronts co-a+co-b; join %s begun on co-a at t=%.0f s and its driver killed mid-copy; co-b stole the lease (%.0f s tenure) and resumed at t=%.0f s, %.0f s trace",
		l.cfg.nodes, l.cfg.replicas, joinName, killedAt, leaseFor, stolenAt, tEnd)
	l.notef("%d objects now route to %s; converged bit-identical to the no-failure reference; zero query errors on both fronts",
		onJoin, joinName)
	ft := stats.NewTable("front", "log", "epoch", "appends", "applies", "rejects", "gossips",
		"acquired", "denied", "steals", "resumes", "hints fwd")
	for _, co := range l.fronts {
		st := co.FanInStats()
		ft.AddRow(st.ID, st.LogLen, st.MaxEpoch, st.Appends, st.Applies, st.Rejects, st.Gossips,
			st.Acquired, st.Denied, st.Steals, st.Resumes, st.HintsForwarded)
	}
	return l.emit(l.phaseTable(), ft,
		l.summaryTable([]string{"migrations", "resumes", "records moved", "degraded queries", "read repairs"},
			ms.Migrations, ms.Resumes, ms.TotalRecordsMoved, cb.DegradedQueries(), cb.Repairs()),
		l.nodeTable(cb))
}
