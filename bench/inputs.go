package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// The benchmark's fixed input shape. The servers are started with
// -seed 1, so the road network is always city 1; the workload seed
// drives the vehicles' routes and drives, the query mix and the
// arrival schedules.
const (
	mapSeed      = 1
	fleetN       = 1000  // generated vehicles
	aliases      = 10    // objects replaying each vehicle's update trace
	routeLen     = 15000 // minimum route length, metres
	frameBatched = 512   // records per frame, batched ingest
	frameSmall   = 8     // records per frame, a base station's worth
	nearestK     = 10
	withinSide   = 1000.0 // metres, side of the range-query square
	queryPool    = 16384  // pre-generated queries per connection
)

// sourceCfg is the paper's city configuration: u_s 100 m, u_p 5 m,
// speed and heading estimated over 4 sightings.
var sourceCfg = core.SourceConfig{US: 100, UP: 5, Sightings: 4}

// protocolCounts are the paper's Table-1 quantities of one fleet pass.
// For a fixed seed they repeat exactly.
type protocolCounts struct {
	samples int
	updates int64
	bytes   int64
	meanErr float64
}

// world is the generated city and fleet shared by every workload.
type world struct {
	g     *roadmap.Graph
	box   geo.Rect
	fleet []sim.FleetObject // truth traces; Source is rebuilt per pass
	hours float64           // object-hours driven by the fleet
	lapS  float64           // the shortest trip's end
}

// genWorld builds the road network and drives the vehicles over it.
func genWorld(seed int64, vehicles int) (*world, error) {
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(mapSeed))
	if err != nil {
		return nil, err
	}
	w := &world{g: cor.Graph, box: geo.EmptyRect()}
	// GenerateFleet wants a registry; the store it fills is discarded
	// because every pass runs against a fresh one.
	w.fleet, err = sim.GenerateFleet(w.g, locserv.New(), sim.FleetSpec{
		N:        vehicles,
		Seed:     seed,
		RouteLen: routeLen,
		IDFormat: "car-%04d",
		Params:   tracegen.CityCarParams(),
		Source:   sourceCfg,
	})
	if err != nil {
		return nil, err
	}
	w.lapS = w.fleet[0].Truth.Duration()
	for i := range w.fleet {
		tr := w.fleet[i].Truth
		w.hours += tr.Duration() / 3600
		if d := tr.Samples[tr.Len()-1].T; d < w.lapS {
			w.lapS = d
		}
		w.box = w.box.Union(tr.Bounds())
	}
	return w, nil
}

// mapPredictor is the predictor factory every store in the benchmark
// registers objects with, the same one locserver's node role uses.
func (w *world) mapPredictor(locserv.ObjectID) core.Predictor { return core.NewMapPredictor(w.g) }

// runPass drives the fleet once, single-threaded, with fresh sources
// into a fresh store: the paper's evaluation path. wrap, when non-nil,
// interposes on the loopback transport (to record or time it); tick is
// sim.Fleet's per-simulated-second callback.
func (w *world) runPass(wrap func(wire.Transport) wire.Transport, tick func(float64)) (protocolCounts, time.Duration, error) {
	svc := locserv.New()
	objs := make([]sim.FleetObject, len(w.fleet))
	for i, o := range w.fleet {
		src, err := core.NewMapSource(sourceCfg, core.NewMapPredictor(w.g))
		if err != nil {
			return protocolCounts{}, 0, err
		}
		if err := svc.Register(o.ID, core.NewMapPredictor(w.g)); err != nil {
			return protocolCounts{}, 0, err
		}
		objs[i] = sim.FleetObject{ID: o.ID, Truth: o.Truth, Source: src}
	}
	var tr wire.Transport = wire.NewLoopback(svc.Sink(nil))
	if wrap != nil {
		tr = wrap(tr)
	}
	fl := sim.Fleet{Service: svc, Objects: objs, Workers: 1, Transport: tr, Tick: tick}
	start := time.Now()
	res, err := fl.Run()
	dur := time.Since(start)
	if err != nil {
		return protocolCounts{}, 0, err
	}
	pc := protocolCounts{samples: res.Samples, bytes: res.Wire.BytesSent, meanErr: res.MeanErr}
	for _, n := range res.Updates {
		pc.updates += n
	}
	return pc, dur, nil
}

// timedRec is one captured update and the simulation time it was sent.
type timedRec struct {
	at  float64
	rec wire.Record
}

// recorder is a wire.Transport that keeps every record it forwards.
type recorder struct {
	wire.Transport
	recs []timedRec
}

func (r *recorder) Send(now float64, batch []wire.Record) error {
	for i := range batch {
		r.recs = append(r.recs, timedRec{at: now, rec: batch[i]})
	}
	return r.Transport.Send(now, batch)
}

// capture runs one pass and returns the update stream the sources sent.
func (w *world) capture() ([]timedRec, protocolCounts, error) {
	var rec *recorder
	pc, _, err := w.runPass(func(t wire.Transport) wire.Transport {
		rec = &recorder{Transport: t}
		return rec
	}, nil)
	if err != nil {
		return nil, pc, err
	}
	return rec.recs, pc, nil
}

// lapStream is one lap of the replayed update stream: every captured
// trace cut at the shortest trip's end and replayed by `aliases`
// objects departing lapS/aliases apart, merged in stream-time order.
// Replaying lap n shifts every timestamp by n*lapS, so stream time
// never goes back; an alias reaching its trace's end restarts it (a
// "teleport" to the trip's start), and because the aliases are phased
// those restarts are spread over the lap instead of bursting at its
// edge.
type lapStream struct {
	lapS float64
	ids  []string      // object ids; objects are numbered vehicle*aliases+alias
	recs []wire.Record // Report.T is lap-relative, Seq is set at emission
	obj  []int32       // the object each record belongs to
	tau  []float64     // lap-relative stream time each record is sent at
}

func (w *world) buildStream(captured []timedRec) *lapStream {
	lapS := w.lapS
	s := &lapStream{lapS: lapS, ids: make([]string, len(w.fleet)*aliases)}
	vehicle := make(map[string]int, len(w.fleet))
	for v, o := range w.fleet {
		vehicle[string(o.ID)] = v
		for a := 0; a < aliases; a++ {
			s.ids[v*aliases+a] = string(o.ID) + "." + strconv.Itoa(a)
		}
	}
	type entry struct {
		tau float64
		obj int32
		rec wire.Record
	}
	var entries []entry
	for _, c := range captured {
		if c.at >= lapS {
			continue
		}
		v := vehicle[c.rec.ID]
		for a := 0; a < aliases; a++ {
			off := float64(a) * lapS / aliases
			e := entry{tau: c.at + off, obj: int32(v*aliases + a), rec: c.rec}
			e.rec.ID = s.ids[e.obj]
			e.rec.Update.Report.T += off
			if e.tau >= lapS {
				// The tail of the trip that departed in the previous lap.
				e.tau -= lapS
				e.rec.Update.Report.T -= lapS
			}
			entries = append(entries, e)
		}
	}
	// Stable, so records sharing a send time keep the capture order and
	// the stream is a pure function of the seed.
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].tau < entries[j].tau })
	s.recs = make([]wire.Record, len(entries))
	s.obj = make([]int32, len(entries))
	s.tau = make([]float64, len(entries))
	for i, e := range entries {
		s.recs[i], s.obj[i], s.tau[i] = e.rec, e.obj, e.tau
	}
	return s
}

// cursor walks the endless replay of a lapStream for the objects whose
// number is rem modulo mod (mod 1: all of them). Cursors over disjoint
// object sets share one seq array, so a connection per cursor keeps
// every object's records in order without any cross-connection race.
type cursor struct {
	s        *lapStream
	seq      []uint32 // per object, the last Seq emitted
	mod, rem int32
	pos      int64   // next position in the unrolled stream
	now      float64 // stream time of the last record emitted
}

func (c *cursor) mine(i int64) bool { return c.s.obj[i]%c.mod == c.rem }

// at materialises the record at unrolled position p with the given Seq.
func (s *lapStream) at(p int64, seq uint32) wire.Record {
	size := int64(len(s.recs))
	rec := s.recs[p%size]
	rec.Update.Report.Seq = seq
	rec.Update.Report.T += float64(p/size) * s.lapS
	return rec
}

// fill appends up to n of the cursor's records to buf, stopping early
// at unrolled position limit (a negative limit never stops).
func (c *cursor) fill(buf []wire.Record, n int, limit int64) []wire.Record {
	size := int64(len(c.s.recs))
	for n > 0 && (limit < 0 || c.pos < limit) {
		p := c.pos
		c.pos++
		if !c.mine(p % size) {
			continue
		}
		o := c.s.obj[p%size]
		c.seq[o]++
		c.now = c.s.tau[p%size] + float64(p/size)*c.s.lapS
		buf = append(buf, c.s.at(p, c.seq[o]))
		n--
	}
	return buf
}

// tail regenerates, in order, the cursor's records of the last full
// lap it emitted. Every object reports at least once per lap and
// replicas keep only the highest Seq, so a store fed the tail ends in
// the same state as one fed the whole stream.
func (c *cursor) tail() []wire.Record {
	size := int64(len(c.s.recs))
	from := c.pos - size
	if from < 0 {
		from = 0
	}
	seq := append([]uint32(nil), c.seq...)
	var out []wire.Record
	for p := c.pos - 1; p >= from; p-- {
		if !c.mine(p % size) {
			continue
		}
		o := c.s.obj[p%size]
		out = append(out, c.s.at(p, seq[o]))
		seq[o]--
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Query kinds of the JSON API, in the order metrics list them.
const (
	kindPosition = iota
	kindNearest
	kindWithin
	numKinds
)

var kindNames = [numKinds]string{"position", "nearest", "within"}

// query is one request of the read mix.
type query struct {
	kind int
	id   string  // position
	x, y float64 // nearest point, or the within square's min corner
}

// genQueries draws n queries of the fixed mix: 50 % position of a
// uniform object, 25 % 10-nearest of a uniform point, 25 % a 1 km
// square placed uniformly in the city box.
func genQueries(rng *rand.Rand, n int, ids []string, box geo.Rect) []query {
	qs := make([]query, n)
	w, h := box.Max.X-box.Min.X, box.Max.Y-box.Min.Y
	for i := range qs {
		switch r := rng.Intn(4); {
		case r < 2:
			qs[i] = query{kind: kindPosition, id: ids[rng.Intn(len(ids))]}
		case r == 2:
			qs[i] = query{kind: kindNearest, x: box.Min.X + rng.Float64()*w, y: box.Min.Y + rng.Float64()*h}
		default:
			qs[i] = query{kind: kindWithin,
				x: box.Min.X + rng.Float64()*(w-withinSide), y: box.Min.Y + rng.Float64()*(h-withinSide)}
		}
	}
	return qs
}

func (q query) rect() geo.Rect {
	return geo.Rect{Min: geo.Pt(q.x, q.y), Max: geo.Pt(q.x+withinSide, q.y+withinSide)}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// path is the request path and query string of q at query time t.
func (q query) path(t float64) string {
	switch q.kind {
	case kindPosition:
		return "/position?id=" + q.id + "&t=" + ftoa(t)
	case kindNearest:
		return "/nearest?x=" + ftoa(q.x) + "&y=" + ftoa(q.y) + "&k=" + strconv.Itoa(nearestK) + "&t=" + ftoa(t)
	default:
		r := q.rect()
		return "/within?minx=" + ftoa(r.Min.X) + "&miny=" + ftoa(r.Min.Y) +
			"&maxx=" + ftoa(r.Max.X) + "&maxy=" + ftoa(r.Max.Y) + "&t=" + ftoa(t)
	}
}

// poisson returns the cumulative arrival offsets of a Poisson process
// of the given rate over the given span.
func poisson(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	for at := 0.0; ; {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}
