package locserv

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/roadmap"
	"mapdr/internal/wire"
)

// withinScanRef and nearestScanRef alias the exported scan oracle
// (oracle.go) — the correctness reference for the live index.
func withinScanRef(s *Service, r geo.Rect, t float64) []ObjectPos {
	return s.ReferenceWithin(r, t)
}

func nearestScanRef(s *Service, p geo.Point, k int, t float64) []ObjectPos {
	return s.ReferenceNearest(p, k, t)
}

// TestLiveIndexMatchesScanUnderChurn is the live index's property test:
// a mixed fleet over all six predictor families churns adversarially —
// teleports across the whole extent, positions exactly on (and one ulp
// off) cell boundaries, rejected stale updates, deregister/re-register
// — while every Within/Nearest answer is required bit-identical to the
// scan reference, at query times after, between and before the reports,
// with k above and below the population and query windows from empty to
// all-covering. Bounded predictors must never fall back to a scan.
func TestLiveIndexMatchesScanUnderChurn(t *testing.T) {
	g, links := buildRingGraph(t, 32, 800)
	dirs := make([]roadmap.Dir, len(links))
	for i, l := range links {
		dirs[i] = roadmap.Dir{Link: l, Forward: true}
	}
	route, err := roadmap.NewRoute(g, dirs)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + shards)))
			s := NewSharded(shards)
			const nObjs = 180
			mkPred := func(i int) core.Predictor {
				switch i % 6 {
				case 0:
					return core.StaticPredictor{}
				case 1:
					return core.LinearPredictor{}
				case 2:
					return core.CTRVPredictor{}
				case 3:
					return core.NewMapPredictor(g)
				case 4:
					return core.NewSpeedCappedMapPredictor(g, false)
				default:
					return &core.RoutePredictor{Route: route}
				}
			}
			mkReport := func(i int, seq uint32, now float64) core.Report {
				rep := core.Report{Seq: seq, T: now - rng.Float64()*20, V: rng.Float64() * 30}
				switch i % 6 {
				case 0, 1, 2: // free predictors: teleport anywhere
					rep.Pos = geo.Pt(rng.Float64()*12000-6000, rng.Float64()*12000-6000)
					rep.Heading = rng.Float64() * 2 * math.Pi
					rep.Omega = rng.Float64() - 0.5
					if rng.Intn(5) == 0 {
						// Exactly on (or one ulp off) a multiple of the
						// initial cell size — the boundary epsilon case.
						rep.Pos = geo.Pt(float64(rng.Intn(48)-24)*liveCellInit, float64(rng.Intn(48)-24)*liveCellInit)
						if rng.Intn(2) == 0 {
							rep.Pos.X = math.Nextafter(rep.Pos.X, math.Inf(-1))
						}
					}
				case 3, 4: // map predictors: teleport to a random link
					l := g.Link(links[rng.Intn(len(links))])
					off := rng.Float64() * l.Length()
					fwd := rng.Intn(2) == 0
					pos, _ := l.PointAtDirected(off, fwd)
					rep.Pos = pos
					rep.Link = roadmap.Dir{Link: l.ID, Forward: fwd}
					rep.Offset = off
				default: // route predictor: teleport along the route
					off := rng.Float64() * route.Length()
					pos, _ := route.PointAt(off)
					rep.Pos = pos
					rep.RouteOffset = off
				}
				return rep
			}
			ids := make([]ObjectID, nObjs)
			seqs := make([]uint32, nObjs)
			for i := range ids {
				ids[i] = ObjectID(fmt.Sprintf("obj-%03d", i))
				if err := s.Register(ids[i], mkPred(i)); err != nil {
					t.Fatal(err)
				}
			}

			check := func(now float64) {
				t.Helper()
				pop := s.Len()
				rects := []geo.Rect{
					{Min: geo.Pt(-400, -400), Max: geo.Pt(400, 400)},
					{Min: geo.Pt(-1e5, -1e5), Max: geo.Pt(1e5, 1e5)},   // everything
					{Min: geo.Pt(7e4, 7e4), Max: geo.Pt(7.1e4, 7.1e4)}, // empty cells
					{Min: geo.Pt(750, -60), Max: geo.Pt(850, 60)},      // on the ring
				}
				points := []geo.Point{{X: 0, Y: 0}, {X: 790, Y: 10}, {X: 1e5, Y: 1e5}}
				for _, qt := range []float64{now, now + 37, now - 13, 0, now + 1000, -50} {
					for _, r := range rects {
						got, want := s.Within(r, qt), withinScanRef(s, r, qt)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Within(%v, t=%v): %d hits != scan %d\n got %v\nwant %v",
								r, qt, len(got), len(want), got, want)
						}
					}
					for _, p := range points {
						for _, k := range []int{1, 5, pop + 7} {
							got, want := s.Nearest(p, k, qt), nearestScanRef(s, p, k, qt)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("Nearest(%v, k=%d, t=%v) != scan\n got %v\nwant %v",
									p, k, qt, got, want)
							}
						}
					}
				}
			}

			for round := 0; round < 25; round++ {
				now := float64(round) * 10
				var batch []wire.Record
				for i := range ids {
					switch rng.Intn(10) {
					case 0: // silent this round
					case 1: // stale or duplicate seq: must be rejected
						batch = append(batch, wire.Record{ID: string(ids[i]), Update: core.Update{Report: mkReport(i, seqs[i], now)}})
					case 2: // deregister + re-register (same predictor family)
						s.Deregister(ids[i])
						if err := s.Register(ids[i], mkPred(i)); err != nil {
							t.Fatal(err)
						}
						seqs[i] = 0
					default:
						seqs[i]++
						batch = append(batch, wire.Record{ID: string(ids[i]), Update: core.Update{Report: mkReport(i, seqs[i], now)}})
					}
				}
				rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
				if _, err := s.DeliverRecords(batch, nil); err != nil {
					t.Fatal(err)
				}
				if round%5 == 0 || round == 24 {
					check(now)
				}
			}
			st := s.NodeStats().IndexStats
			if st.ScanFallbacks != 0 {
				t.Errorf("bounded fleet fell back to scan %d times", st.ScanFallbacks)
			}
			if st.IndexedQueries == 0 || st.CellMoves == 0 {
				t.Errorf("index counters did not move: %+v", st)
			}
		})
	}
}

// TestLiveIndexUnboundedFallbackAndRecovery checks the scan fallback
// for unbounded predictors: while any RaiseToLimit object is resident
// its shard scans (answers still identical), and once the unbounded
// objects deregister the shard returns to the indexed path with the
// index having been maintained for the bounded fleet all along.
func TestLiveIndexUnboundedFallbackAndRecovery(t *testing.T) {
	g, links := buildRingGraph(t, 16, 500)
	rng := rand.New(rand.NewSource(9))
	s := NewSharded(1) // one shard so one unbounded object poisons all queries
	const nObjs = 60
	for i := 0; i < nObjs; i++ {
		id := ObjectID(fmt.Sprintf("car-%02d", i))
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(id, core.Update{Report: core.Report{
			Seq: 1, T: 0, Pos: geo.Pt(rng.Float64()*4000, rng.Float64()*4000),
			V: rng.Float64() * 20, Heading: rng.Float64() * 6,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	r := geo.Rect{Min: geo.Pt(500, 500), Max: geo.Pt(3000, 3000)}
	s.Within(r, 5)
	base := s.NodeStats().IndexStats
	if base.ScanFallbacks != 0 || base.IndexedQueries == 0 {
		t.Fatalf("expected indexed baseline, got %+v", base)
	}

	// Two unbounded objects join; one reports, one stays silent.
	for _, id := range []ObjectID{"wild-0", "wild-1"} {
		if err := s.Register(id, core.NewSpeedCappedMapPredictor(g, true)); err != nil {
			t.Fatal(err)
		}
	}
	l := g.Link(links[0])
	pos, _ := l.PointAtDirected(3, true)
	if err := s.Apply("wild-0", core.Update{Report: core.Report{
		Seq: 1, T: 0, Pos: pos, V: 10, Link: roadmap.Dir{Link: l.ID, Forward: true}, Offset: 3,
	}}); err != nil {
		t.Fatal(err)
	}
	for _, qt := range []float64{0, 20} {
		if got, want := s.Within(r, qt), withinScanRef(s, r, qt); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback Within(t=%v) diverges:\n got %v\nwant %v", qt, got, want)
		}
		if got, want := s.Nearest(pos, 7, qt), nearestScanRef(s, pos, 7, qt); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback Nearest(t=%v) diverges:\n got %v\nwant %v", qt, got, want)
		}
	}
	mid := s.NodeStats().IndexStats
	if mid.ScanFallbacks == 0 {
		t.Fatal("unbounded resident did not trigger scan fallbacks")
	}

	// The unbounded objects leave; the live index takes over again,
	// consistent without any rebuild.
	s.Deregister("wild-0")
	s.Deregister("wild-1")
	before := s.NodeStats().ScanFallbacks
	for _, qt := range []float64{0, 20, 111} {
		if got, want := s.Within(r, qt), withinScanRef(s, r, qt); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered Within(t=%v) diverges:\n got %v\nwant %v", qt, got, want)
		}
	}
	after := s.NodeStats().IndexStats
	if after.ScanFallbacks != before {
		t.Error("scan fallbacks kept growing after the unbounded objects left")
	}
	if after.IndexedQueries <= mid.IndexedQueries {
		t.Error("indexed queries did not resume after recovery")
	}
}

// TestConcurrentLiveIndexSameShard hammers a single shard with
// concurrent DeliverRecords (teleporting objects across cells every round,
// plus register/deregister churn of an unbounded object) and
// Within/Nearest readers. Under -race this proves the lock discipline
// of the in-place index maintenance; afterwards the quiesced store must
// answer bit-identically to the scan reference.
func TestConcurrentLiveIndexSameShard(t *testing.T) {
	const (
		nObjs   = 64
		readers = 6
		rounds  = 60
	)
	s := NewSharded(1)
	ids := make([]ObjectID, nObjs)
	for i := range ids {
		ids[i] = ObjectID(fmt.Sprintf("veh-%02d", i))
		if err := s.Register(ids[i], core.LinearPredictor{}); err != nil {
			t.Fatal(err)
		}
	}
	mkReport := func(i int, seq uint32, rnd *rand.Rand) core.Report {
		return core.Report{
			Seq: seq, T: float64(seq) * 5,
			Pos:     geo.Pt(rnd.Float64()*20000-10000, rnd.Float64()*20000-10000),
			V:       rnd.Float64() * 25,
			Heading: rnd.Float64() * 2 * math.Pi,
		}
	}
	var round atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rnd := rand.New(rand.NewSource(77))
		for seq := uint32(1); seq <= rounds; seq++ {
			b := make([]wire.Record, nObjs)
			for i := range ids {
				b[i] = wire.Record{ID: string(ids[i]), Update: core.Update{Report: mkReport(i, seq, rnd)}}
			}
			if _, err := s.DeliverRecords(b, nil); err != nil {
				t.Error(err)
				return
			}
			// Unbounded-object churn flips the shard between the indexed
			// and scan paths while readers are in flight.
			if seq%8 == 3 {
				if err := s.Register("wild", core.NewSpeedCappedMapPredictor(nil, true)); err != nil {
					t.Error(err)
				}
			}
			if seq%8 == 6 {
				s.Deregister("wild")
			}
			round.Store(int64(seq))
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				qt := float64(round.Load())*5 + rnd.Float64()*20 - 5
				s.Within(geo.Rect{
					Min: geo.Pt(rnd.Float64()*10000-10000, rnd.Float64()*10000-10000),
					Max: geo.Pt(rnd.Float64()*10000, rnd.Float64()*10000),
				}, qt)
				s.Nearest(geo.Pt(rnd.Float64()*20000-10000, rnd.Float64()*20000-10000), 1+rnd.Intn(nObjs+8), qt)
			}
		}(w)
	}
	wg.Wait()
	s.Deregister("wild") // may or may not be resident; either is fine

	for _, qt := range []float64{float64(rounds) * 5, float64(rounds)*5 + 60, 0} {
		r := geo.Rect{Min: geo.Pt(-8000, -8000), Max: geo.Pt(8000, 8000)}
		if got, want := s.Within(r, qt), withinScanRef(s, r, qt); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-quiesce Within(t=%v) diverges: %d vs %d hits", qt, len(got), len(want))
		}
		if got, want := s.Nearest(geo.Pt(0, 0), 10, qt), nearestScanRef(s, geo.Pt(0, 0), 10, qt); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-quiesce Nearest(t=%v) diverges:\n got %v\nwant %v", qt, got, want)
		}
	}
}

// TestLiveIndexExtremeCoordinates is the regression test for the int32
// cell-coordinate overflow class: query geometry far beyond the int32
// cell range (half-open "everything in this band" rects, far-away k-NN
// centers) and bounded members parked at coordinates that saturate
// CellOf must all answer bit-identically to the scan reference, instead
// of silently losing hits to an inverted cell window or a wrapped ring
// distance.
func TestLiveIndexExtremeCoordinates(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + shards)))
			s := NewSharded(shards)
			const nObjs = 100
			for i := 0; i < nObjs; i++ {
				id := ObjectID(fmt.Sprintf("band-%03d", i))
				if err := s.Register(id, core.LinearPredictor{}); err != nil {
					t.Fatal(err)
				}
				if err := s.Apply(id, core.Update{Report: core.Report{
					Seq: 1, T: 0,
					Pos:     geo.Pt(rng.Float64()*12000-6000, rng.Float64()*10000),
					V:       rng.Float64() * 20,
					Heading: rng.Float64() * 2 * math.Pi,
				}}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string) {
				t.Helper()
				rects := []geo.Rect{
					{Min: geo.Pt(-1e15, -100), Max: geo.Pt(1e15, 20000)}, // X half-open band (the reported repro)
					{Min: geo.Pt(-7000, -1e18), Max: geo.Pt(7000, 1e18)}, // Y half-open band
					{Min: geo.Pt(-1e18, -1e18), Max: geo.Pt(1e18, 1e18)}, // everything
					{Min: geo.Pt(2e14, -100), Max: geo.Pt(3e14, 20000)},  // far window, disjoint from the fleet
					{Min: geo.Pt(-200, -200), Max: geo.Pt(200, 200)},     // plain in-range window
				}
				points := []geo.Point{{X: 1e15, Y: 0}, {X: -3e18, Y: 2e17}, {X: 0, Y: 5000}}
				for _, qt := range []float64{0, 30, -10} {
					for _, r := range rects {
						got, want := s.Within(r, qt), withinScanRef(s, r, qt)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: Within(%v, t=%v): %d hits != scan %d",
								stage, r, qt, len(got), len(want))
						}
					}
					for _, p := range points {
						for _, k := range []int{1, 7, nObjs + 5} {
							got, want := s.Nearest(p, k, qt), nearestScanRef(s, p, k, qt)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: Nearest(%v, k=%d, t=%v) != scan\n got %v\nwant %v",
									stage, p, k, qt, got, want)
							}
						}
					}
				}
			}
			check("in-range fleet")

			// A bounded member parked where CellOf saturates: its shard must
			// keep answering bit-identically (by the scan body, or after a
			// forced rebucket to covering cells) rather than trust cell
			// geometry that no longer brackets the member.
			if err := s.Register("voyager", core.StaticPredictor{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply("voyager", core.Update{Report: core.Report{
				Seq: 1, T: 0, Pos: geo.Pt(9e14, -9e14),
			}}); err != nil {
				t.Fatal(err)
			}
			check("saturated member")

			// The member returns to range; pruning resumes, still identical.
			if err := s.Apply("voyager", core.Update{Report: core.Report{
				Seq: 2, T: 1, Pos: geo.Pt(100, 100),
			}}); err != nil {
				t.Fatal(err)
			}
			check("recovered")

			if st := s.NodeStats().IndexStats; st.ScanFallbacks != 0 {
				t.Errorf("bounded fleet fell back to scan %d times: %+v", st.ScanFallbacks, st)
			}
		})
	}
}

// TestLiveIndexLooseFolds is the seeded property test for what the
// churn test above does not stress: folds that are loose. Fast objects
// that just reported share cells and shards with slow ones that went
// quiet minutes ago, so a cell's fold (fastest speed × oldest age)
// describes no resident and only the per-object bounds prune well;
// static objects sit at exactly equal distances from a query point so
// the k-th distance is a tie; a few objects are parked at ±1e15 where
// CellOf saturates. Every round applies its updates from concurrent
// writers while readers query (the -race half), deregisters and
// re-registers objects, and twice swings the population far enough to
// force rebuckets. Once the round's writers have joined, Nearest and
// Within must equal the scan references exactly — ids, order, float64
// coordinates — at query times before, between and after the report
// times, for k from 1 to beyond the population. A failure names its
// seed.
func TestLiveIndexLooseFolds(t *testing.T) {
	seeds := 12
	if testing.Short() || raceEnabled {
		seeds = 4 // the race detector slows the sweep ~10x; CI runs both modes
	}
	for seed := 1; seed <= seeds; seed++ {
		if msg := looseFoldsRun(int64(seed)); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// looseFoldsRun plays one seeded schedule and returns a description of
// the first divergence from the scan references, or "".
func looseFoldsRun(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	s := NewSharded([]int{1, 4, 16}[seed%3])
	tieCenter := geo.Pt(-20000, 15000)
	clusters := []geo.Point{{X: 0, Y: 0}, {X: 3000, Y: 500}, {X: -2500, Y: 4000}}

	seqs := map[ObjectID]uint32{}
	var live []ObjectID
	register := func(id ObjectID, pred core.Predictor) {
		if err := s.Register(id, pred); err != nil {
			panic(err)
		}
		seqs[id] = 0
		live = append(live, id)
	}
	// report draws an object's next report at stream time now: half the
	// fleet fast and fresh, half slow and long quiet, in shared clusters.
	report := func(id ObjectID, now float64) wire.Record {
		seqs[id]++
		c := clusters[rng.Intn(len(clusters))]
		rep := core.Report{
			Seq:     seqs[id],
			Pos:     geo.Pt(c.X+rng.NormFloat64()*400, c.Y+rng.NormFloat64()*400),
			Heading: rng.Float64() * 2 * math.Pi,
		}
		if rng.Intn(2) == 0 {
			rep.T, rep.V = now-rng.Float64()*3, 15+rng.Float64()*25
		} else {
			rep.T, rep.V = now-30-rng.Float64()*270, rng.Float64()*2
		}
		return wire.Record{ID: string(id), Update: core.Update{Report: rep}}
	}
	// park pins a static object at an exact position.
	park := func(id ObjectID, pos geo.Point, now float64) {
		register(id, core.StaticPredictor{})
		seqs[id]++
		if err := s.Apply(id, core.Update{Report: core.Report{Seq: seqs[id], T: now, Pos: pos}}); err != nil {
			panic(err)
		}
	}

	// Eight static objects at exactly 50 m and four at exactly 120 m from
	// tieCenter (axis-aligned and 3-4-5 offsets: hypot is exact), far from
	// the clusters, so every k up to 12 there cuts through a tie.
	for i, d := range []geo.Point{
		{X: 50}, {X: -50}, {Y: 50}, {Y: -50}, {X: 30, Y: 40}, {X: -30, Y: 40}, {X: 40, Y: -30}, {X: -40, Y: -30},
		{X: 120}, {Y: -120}, {X: 72, Y: 96}, {X: -96, Y: 72},
	} {
		park(ObjectID(fmt.Sprintf("tie-%02d", i)), tieCenter.Add(d), 0)
	}
	for i, pos := range []geo.Point{{X: 1e15, Y: 10}, {X: -1e15, Y: -1e15}, {X: 300, Y: 1e15}} {
		park(ObjectID(fmt.Sprintf("edge-%d", i)), pos, 0)
	}
	nextID := 0
	grow := func(n int, now float64) []wire.Record {
		batch := make([]wire.Record, n)
		for i := range batch {
			id := ObjectID(fmt.Sprintf("obj-%04d", nextID))
			nextID++
			if rng.Intn(8) == 0 {
				register(id, core.CTRVPredictor{})
			} else {
				register(id, core.LinearPredictor{})
			}
			batch[i] = report(id, now)
		}
		return batch
	}

	check := func(now float64) string {
		pop := s.Len()
		points := append([]geo.Point{tieCenter, {X: 1e15, Y: 0}, {X: rng.Float64()*8000 - 4000, Y: rng.Float64()*8000 - 4000}}, clusters...)
		rects := []geo.Rect{
			{Min: tieCenter.Add(geo.Pt(-50, -50)), Max: tieCenter.Add(geo.Pt(50, 50))}, // ties on the boundary
			{Min: geo.Pt(-600, -600), Max: geo.Pt(600, 600)},
			{Min: geo.Pt(2000, -1000), Max: geo.Pt(4500, 1500)},
			{Min: geo.Pt(-2e15, -2e15), Max: geo.Pt(2e15, 2e15)}, // everything, edge cells included
			{Min: geo.Pt(9e14, -100), Max: geo.Pt(2e15, 100)},    // one edge cell's resident
		}
		for _, qt := range []float64{now, now + 90, now - 150, -500} {
			for _, r := range rects {
				if got, want := s.Within(r, qt), s.ReferenceWithin(r, qt); !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("Within(%v, t=%v): %d hits, scan %d\n got %v\nwant %v", r, qt, len(got), len(want), got, want)
				}
			}
			for _, p := range points {
				for _, k := range []int{1, 3, 8, 12, pop + 9} {
					if got, want := s.Nearest(p, k, qt), s.ReferenceNearest(p, k, qt); !reflect.DeepEqual(got, want) {
						return fmt.Sprintf("Nearest(%v, k=%d, t=%v) != scan\n got %v\nwant %v", p, k, qt, got, want)
					}
				}
			}
		}
		return ""
	}

	// Each shard's cell size at the end of the previous round, and how
	// many times a round's end found a shard's size changed.
	cellSizes := make([]float64, len(s.shards))
	resizes := 0
	for i, sh := range s.shards {
		cellSizes[i] = sh.grid.CellSize()
	}
	const writers = 3
	for round := 0; round < 8; round++ {
		now := float64(round) * 40
		var batch []wire.Record
		switch round {
		case 0:
			batch = grow(150, now)
		case 3:
			batch = grow(700, now) // the population swings up…
		case 6:
			rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
			cut := len(live) * 3 / 4 // …and back down: both rebucket
			for _, id := range live[cut:] {
				s.Deregister(id)
				delete(seqs, id)
			}
			live = live[:cut]
		}
		for _, id := range live {
			if _, moving := seqs[id]; moving && id[0] == 'o' && rng.Intn(3) == 0 {
				batch = append(batch, report(id, now))
			}
		}
		// Concurrent writers on disjoint objects (striped by position in
		// the batch, each object appears once) and readers alongside.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			var part []wire.Record
			for i := w; i < len(batch); i += writers {
				part = append(part, batch[i])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.DeliverRecords(part, nil); err != nil {
					panic(err)
				}
			}()
		}
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(p geo.Point) {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s.Nearest(p, 10, now)
					s.Within(geo.Rect{Min: p.Add(geo.Pt(-500, -500)), Max: p.Add(geo.Pt(500, 500))}, now)
				}
			}(clusters[r])
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if msg := check(now); msg != "" {
			return fmt.Sprintf("round %d: %s", round, msg)
		}
		for i, sh := range s.shards {
			if cs := sh.grid.CellSize(); cs != cellSizes[i] {
				cellSizes[i] = cs
				resizes++
			}
		}
	}
	if st := s.NodeStats().IndexStats; st.ScanFallbacks != 0 || resizes < 2 {
		return fmt.Sprintf("schedule did not exercise the index: %d cell size changes, %+v", resizes, st)
	}
	return ""
}
