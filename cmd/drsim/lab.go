package main

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/stats"
	"mapdr/internal/wire"
)

// drill declares one cluster experiment over the lab: the topology it
// needs and the run it plays on it. The drills table in drills.go is the
// single list main, the -exp help and the tests read.
type drill struct {
	name string
	// minNodes and minReplicas bound -nodes and -replicas from below; why
	// tells a rejected caller what the drill does that needs them.
	// replicas is the R used when -replicas is left at 0.
	minNodes, minReplicas int
	why                   string
	replicas              int
	// fronts is the number of coordinators over the shared nodes (0
	// means one).
	fronts int
	// phases labels the measurement windows of the probe accounting. A
	// drill without phases gets no reference store: it only measures.
	phases []string
	// run plays the drill on a built lab (topology up, fleet generated,
	// tEnd known): drive the fleet under the drill's per-tick step,
	// quiesce, assert, and only then report.
	run func(l *lab) error
}

// phaseStats is the probe accounting of one measurement window.
type phaseStats struct {
	queries, answered  int
	staleSum, staleMax float64
	staleN             int
}

// lab is the one cluster harness the drills share: a city graph, N
// location-service nodes behind one or two coordinator fronts, a
// no-failure reference store fed the identical update stream, and the
// fleet that drives them.
type lab struct {
	cfg fleetConfig
	w   io.Writer
	csv bool

	graph     *roadmap.Graph
	injectors []*cluster.FaultInjector // per node: front 0's fault gate on it
	fronts    []*cluster.Coordinator
	ref       *locserv.Service // nil unless the drill has phases
	spec      sim.FleetSpec
	objs      []sim.FleetObject
	tEnd      float64 // last sample time of the longest trace

	phases []string
	phase  int // index into phases the next probe is booked under
	acct   []phaseStats

	res     *sim.FleetResult
	updates int64
	wall    time.Duration
}

// Probe geometry shared by the running probe mix and the convergence
// sweep: the city centre and its inner 6 km square.
var (
	probeCentre = geo.Pt(5000, 5000)
	probeRect   = geo.Rect{Min: geo.Pt(2000, 2000), Max: geo.Pt(8000, 8000)}
)

// runDrill plays one drill: validate the config, build the lab, run the
// drill on it, reporting to w.
func runDrill(d *drill, cfg fleetConfig, w io.Writer, csv bool) error {
	l, err := newLab(d, cfg, w, csv)
	if err == nil {
		err = d.run(l)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", d.name, err)
	}
	return nil
}

// drive runs the fleet to the end of its traces: updates travel through
// ingest — tee'd into the reference store when the drill has one — the
// fleet's error-accounting reads go through query, and tick runs once
// per simulated second after that second's updates have been applied.
func (l *lab) drive(ingest wire.Transport, query locserv.Querier, tick func(t float64)) (err error) {
	if l.ref != nil {
		// The reference takes the same update frames the nodes do, so
		// both hold the codec's f32 speed and heading.
		ingest = teeTransport{Transport: ingest, ref: wire.NewStreamLoopback(wire.StreamServer{
			Deliver: func(recs []wire.Record) (int, error) { return l.ref.DeliverRecords(recs, nil) },
		})}
	}
	fl := sim.Fleet{Objects: l.objs, Workers: l.cfg.workers, Transport: ingest, Query: query, Tick: tick}
	startT := time.Now()
	if l.res, err = fl.Run(); err != nil {
		return err
	}
	l.wall = time.Since(startT)
	for _, n := range l.res.Updates {
		l.updates += n
	}
	return nil
}

// newLab validates cfg against the drill's declaration and builds the
// topology and the fleet.
func newLab(d *drill, cfg fleetConfig, w io.Writer, csv bool) (*lab, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.replicas <= 0 {
		cfg.replicas = d.replicas
	}
	if cfg.nodes < d.minNodes || cfg.replicas < d.minReplicas {
		return nil, fmt.Errorf("needs -nodes >= %d and -replicas >= %d: %s", d.minNodes, d.minReplicas, d.why)
	}
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(cfg.seed))
	if err != nil {
		return nil, err
	}
	l := &lab{cfg: cfg, w: w, csv: csv, graph: cor.Graph, spec: fleetSpec(cfg),
		phases: d.phases, acct: make([]phaseStats, len(d.phases))}
	nodes := make([]*locserv.NodeService, cfg.nodes)
	for i := range nodes {
		nodes[i] = l.newNode()
	}
	// Every front holds its own Member handles on the shared nodes, like
	// separate coordinator processes fronting one cluster; each handle
	// has its own fault gate.
	for f := 0; f < max(d.fronts, 1); f++ {
		members := make([]*cluster.Member, cfg.nodes)
		injectors := make([]*cluster.FaultInjector, cfg.nodes)
		for i, node := range nodes {
			members[i], injectors[i] = cluster.NewFaultyMember(nodeName(i), node)
		}
		if f == 0 {
			l.injectors = injectors
		}
		co, err := cluster.NewReplicated(0, cfg.replicas, members...)
		if err != nil {
			return nil, err
		}
		l.fronts = append(l.fronts, co)
	}
	// Registration reaches the shared nodes through front 0; the other
	// fronts route to the same replicas.
	if l.objs, err = sim.GenerateFleet(l.graph, l.fronts[0], l.spec); err != nil {
		return nil, err
	}
	if len(d.phases) > 0 {
		l.ref = locserv.NewSharded(cfg.shards)
	}
	for i := range l.objs {
		if l.ref != nil {
			if err := l.ref.Register(l.objs[i].ID, l.predictor(l.objs[i].ID)); err != nil {
				return nil, err
			}
		}
		l.tEnd = max(l.tEnd, l.objs[i].Truth.Samples[l.objs[i].Truth.Len()-1].T)
	}
	return l, nil
}

func nodeName(i int) string { return fmt.Sprintf("node-%02d", i) }

// predictor is the prediction function of every replica in the lab —
// on the nodes and in the reference store: the map-based one the fleet's
// sources run.
func (l *lab) predictor(locserv.ObjectID) core.Predictor { return core.NewMapPredictor(l.graph) }

// newNode builds one location-service node: the lab's initial members,
// and the members drills join mid-run.
func (l *lab) newNode() *locserv.NodeService {
	return locserv.NewNodeService(locserv.NewSharded(l.cfg.shards), l.predictor)
}

// probe issues the per-second query mix against front — Position for
// every stride-th object, one 10-NN, one Within — booking availability
// and, for every Position both sides answer, staleness in metres against
// the reference under the current phase.
func (l *lab) probe(front *cluster.Coordinator, t float64) {
	a := &l.acct[l.phase]
	count := func(err error) {
		a.queries++
		if err == nil {
			a.answered++
		}
	}
	stride := len(l.objs)/16 + 1
	for i := 0; i < len(l.objs); i += stride {
		p, ok, err := front.PositionE(l.objs[i].ID, t)
		count(err)
		if err != nil || !ok {
			continue
		}
		if rp, rok := l.ref.Position(l.objs[i].ID, t); rok {
			d := p.Dist(rp)
			a.staleSum += d
			a.staleN++
			a.staleMax = max(a.staleMax, d)
		}
	}
	_, err := front.NearestE(probeCentre, 10, t)
	count(err)
	_, err = front.WithinE(probeRect, t)
	count(err)
}

// converged reports whether front, after quiesce, answers bit-identical
// to the reference at tEnd: every object's Position, the probe 10-NN and
// the probe Within.
func (l *lab) converged(front *cluster.Coordinator) error {
	mismatches := 0
	for i := range l.objs {
		p, ok := front.Position(l.objs[i].ID, l.tEnd)
		rp, rok := l.ref.Position(l.objs[i].ID, l.tEnd)
		if ok != rok || p != rp {
			mismatches++
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d positions diverged from the no-failure reference", mismatches, len(l.objs))
	}
	near, _ := front.NearestE(probeCentre, 10, l.tEnd)
	if !reflect.DeepEqual(near, l.ref.Nearest(probeCentre, 10, l.tEnd)) {
		return fmt.Errorf("Nearest diverged from the no-failure reference after quiesce")
	}
	within, _ := front.WithinE(probeRect, l.tEnd)
	if !reflect.DeepEqual(within, l.ref.Within(probeRect, l.tEnd)) {
		return fmt.Errorf("Within diverged from the no-failure reference after quiesce")
	}
	return nil
}

// staleWithinBound asserts the paper's accuracy contract held through
// every phase: no probed answer strayed from the reference by more than
// the u_s the fleet's sources were built with.
func (l *lab) staleWithinBound() error {
	us := l.spec.Source.US
	for ph, a := range l.acct {
		if a.staleMax > us {
			return fmt.Errorf("phase %q max staleness %.1f m exceeds the u_s=%.0f m bound", l.phases[ph], a.staleMax, us)
		}
	}
	return nil
}

// notef prints one "# " comment line of the report.
func (l *lab) notef(format string, args ...any) {
	fmt.Fprintf(l.w, "# "+format+"\n", args...)
}

// emit prints the report's tables in order.
func (l *lab) emit(tables ...*stats.Table) error {
	for _, tb := range tables {
		if err := write(l.w, tb, l.csv); err != nil {
			return err
		}
	}
	return nil
}

// phaseTable is availability and staleness per measurement window.
func (l *lab) phaseTable() *stats.Table {
	tb := stats.NewTable("phase", "queries", "answered", "avail [%]", "mean stale [m]", "max stale [m]")
	for ph, a := range l.acct {
		avail, mean := 0.0, 0.0
		if a.queries > 0 {
			avail = 100 * float64(a.answered) / float64(a.queries)
		}
		if a.staleN > 0 {
			mean = a.staleSum / float64(a.staleN)
		}
		tb.AddRow(l.phases[ph], a.queries, a.answered, avail, mean, a.staleMax)
	}
	return tb
}

// summaryTable is the one-row fleet summary — protocol traffic, served
// accuracy, wall clock — extended by the drill's own columns.
func (l *lab) summaryTable(cols []string, cells ...any) *stats.Table {
	tb := stats.NewTable(append([]string{"vehicles", "samples", "updates", "mean err [m]", "wall [ms]"}, cols...)...)
	tb.AddRow(append([]any{l.cfg.n, l.res.Samples, l.updates, l.res.MeanErr, l.wall.Milliseconds()}, cells...)...)
	return tb
}

// nodeTable is front's per-member routing, health and hinted-handoff
// accounting.
func (l *lab) nodeTable(front *cluster.Coordinator) *stats.Table {
	tb := stats.NewTable("node", "objects", "routed records", "errors", "health",
		"hinted", "drained", "requeued", "hints pending")
	for _, ms := range front.MemberStats() {
		tb.AddRow(ms.Name, ms.Node.Objects, ms.Records, ms.Errors, ms.Health.String(),
			ms.Hints.Hinted, ms.Hints.Drained, ms.Hints.Requeued, ms.Hints.Buffered)
	}
	return tb
}

// teeTransport delivers every update batch to the cluster under test
// and to the no-failure reference store, so the reference always holds
// what a healthy cluster would.
type teeTransport struct {
	wire.Transport // the cluster under test; its Stats are the run's
	ref            wire.Transport
}

func (t teeTransport) Send(now float64, batch []wire.Record) error {
	if err := t.ref.Send(now, batch); err != nil {
		return err
	}
	return t.Transport.Send(now, batch)
}

func (t teeTransport) Flush(now float64) error {
	if err := t.ref.Flush(now); err != nil {
		return err
	}
	return t.Transport.Flush(now)
}
