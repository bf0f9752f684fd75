package locserv

// Benchmarks for the sharded store.
//
// BenchmarkStoreThroughput is the PR gate: it runs the same combined
// ingestion+query workload against (a) a faithful replica of the seed's
// single-mutex service — per-update Apply, sort-everything Nearest,
// scan-everything Within — and (b) the sharded store at 1, 8 and 64
// shards. The acceptance bar is sharded-8 >= 2x the single-lock
// baseline at 10k objects. On a single-core machine the gain comes from
// the algorithmic changes (batched lock acquisition, bounded-heap k-NN,
// spatial-snapshot range pruning); on multicore machines the per-shard
// locks and parallel fan-out add contention relief on top, visible in
// the RunParallel benchmarks below.
//
//	go test -bench=Store -benchtime=1s ./internal/locserv

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mapdr/internal/core"
	"mapdr/internal/geo"
)

const (
	benchObjects   = 10000
	benchBatchSize = 256
)

var benchShardCounts = []int{1, 8, 64}

func benchReport(i int, seq uint32) core.Report {
	return core.Report{
		Seq:     seq,
		T:       float64(seq),
		Pos:     geo.Pt(float64(i%100)*100, float64(i/100)*100),
		V:       10,
		Heading: float64(i%628) / 100,
	}
}

// benchService returns a store of benchObjects linear movers spread over
// a 10x10 km area, each with an initial report.
func benchService(b *testing.B, shards int) (*Service, []ObjectID) {
	b.Helper()
	s := NewSharded(shards)
	ids := make([]ObjectID, benchObjects)
	for i := range ids {
		id := ObjectID(fmt.Sprintf("veh-%05d", i))
		ids[i] = id
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			b.Fatal(err)
		}
		if err := s.Apply(id, core.Update{Report: benchReport(i, 1)}); err != nil {
			b.Fatal(err)
		}
	}
	return s, ids
}

// singleLockStore replicates the seed's Service: one RWMutex around one
// map, per-update ingestion, sort-based Nearest and scan-based Within.
// It is the "before" side of BenchmarkStoreThroughput.
type singleLockStore struct {
	mu   sync.RWMutex
	objs map[ObjectID]*core.Server
}

func newSingleLockStore() *singleLockStore {
	return &singleLockStore{objs: make(map[ObjectID]*core.Server)}
}

func (s *singleLockStore) register(id ObjectID, pred core.Predictor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objs[id] = core.NewServer(pred)
}

func (s *singleLockStore) apply(id ObjectID, u core.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if srv, ok := s.objs[id]; ok {
		srv.Apply(u)
	}
}

func (s *singleLockStore) position(id ObjectID, t float64) (geo.Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	srv, ok := s.objs[id]
	if !ok {
		return geo.Point{}, false
	}
	return srv.Position(t)
}

func (s *singleLockStore) nearest(p geo.Point, k int, t float64) []ObjectPos {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var all []ObjectPos
	for id, srv := range s.objs {
		pos, ok := srv.Position(t)
		if !ok {
			continue
		}
		all = append(all, ObjectPos{ID: id, Pos: pos, Dist: p.Dist(pos)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func (s *singleLockStore) within(r geo.Rect, t float64) []ObjectPos {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectPos
	for id, srv := range s.objs {
		pos, ok := srv.Position(t)
		if !ok {
			continue
		}
		if r.Contains(pos) {
			out = append(out, ObjectPos{ID: id, Pos: pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// storeOps abstracts both implementations for the gate workload.
type storeOps struct {
	applyBatch func([]Update)
	position   func(ObjectID, float64) (geo.Point, bool)
	nearest    func(geo.Point, int, float64) []ObjectPos
	within     func(geo.Rect, float64) []ObjectPos
}

// gateWorkload is one benchmark op: a 256-update batch followed by a
// query mix (32 point, 2 k-NN, 2 range).
func gateWorkload(b *testing.B, ops storeOps, ids []ObjectID, round int) {
	seq := uint32(round + 2)
	batch := make([]Update, benchBatchSize)
	for j := range batch {
		i := (round*benchBatchSize + j) % len(ids)
		batch[j] = Update{ID: ids[i], Update: core.Update{Report: benchReport(i, seq)}}
	}
	ops.applyBatch(batch)
	for q := 0; q < 32; q++ {
		if _, ok := ops.position(ids[(round*31+q*13)%len(ids)], 0); !ok {
			b.Fatal("missing position")
		}
	}
	for q := 0; q < 2; q++ {
		if hits := ops.nearest(geo.Pt(float64((round+q)%100)*100, 5000), 10, 0); len(hits) != 10 {
			b.Fatalf("nearest hits = %d", len(hits))
		}
		x := float64((round+q)%50) * 100
		ops.within(geo.Rect{Min: geo.Pt(x, 2000), Max: geo.Pt(x+500, 2500)}, 0)
	}
}

// BenchmarkStoreThroughput is the gate benchmark (see file comment).
func BenchmarkStoreThroughput(b *testing.B) {
	b.Run("baseline-single-lock", func(b *testing.B) {
		s := newSingleLockStore()
		ids := make([]ObjectID, benchObjects)
		for i := range ids {
			ids[i] = ObjectID(fmt.Sprintf("veh-%05d", i))
			s.register(ids[i], core.LinearPredictor{})
			s.apply(ids[i], core.Update{Report: benchReport(i, 1)})
		}
		ops := storeOps{
			// The seed had no batch path: ingestion is one locked Apply
			// per update.
			applyBatch: func(batch []Update) {
				for _, u := range batch {
					s.apply(u.ID, u.Update)
				}
			},
			position: s.position,
			nearest:  s.nearest,
			within:   s.within,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gateWorkload(b, ops, ids, i)
		}
	})
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			s, ids := benchService(b, shards)
			ops := storeOps{
				applyBatch: func(batch []Update) {
					if err := s.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				},
				position: s.Position,
				nearest:  s.Nearest,
				within:   s.Within,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gateWorkload(b, ops, ids, i)
			}
		})
	}
}

// --- concurrent per-API benchmarks (contention profile on multicore) ----

// BenchmarkServiceApplyBatch measures concurrent batched ingestion: each
// op applies one batch of benchBatchSize updates.
func BenchmarkServiceApplyBatch(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, ids := benchService(b, shards)
			var seq atomic.Uint32
			seq.Store(1)
			var cursor atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]Update, benchBatchSize)
				for pb.Next() {
					sq := seq.Add(1)
					base := int(cursor.Add(benchBatchSize))
					for j := range batch {
						i := (base + j) % len(ids)
						batch[j] = Update{ID: ids[i], Update: core.Update{Report: benchReport(i, sq)}}
					}
					if err := s.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(benchBatchSize), "updates/op")
		})
	}
}

// BenchmarkServicePosition measures concurrent point queries.
func BenchmarkServicePosition(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, ids := benchService(b, shards)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, ok := s.Position(ids[i%len(ids)], float64(i%600)); !ok {
						b.Fatal("missing position")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkServiceNearest measures the fan-out k-NN query (a full
// predicted-position reduction over every shard).
func BenchmarkServiceNearest(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, _ := benchService(b, shards)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if hits := s.Nearest(geo.Pt(float64(i%100)*100, 5000), 10, float64(i%600)); len(hits) != 10 {
						b.Fatalf("hits = %d", len(hits))
					}
					i++
				}
			})
		})
	}
}

// BenchmarkServiceWithin measures the range query over the spatial
// snapshot (queries at t=0 keep the expansion reach tight).
func BenchmarkServiceWithin(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, _ := benchService(b, shards)
			s.Within(geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}, 0) // warm the snapshot
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					x := float64(i%50) * 100
					s.Within(geo.Rect{Min: geo.Pt(x, 2000), Max: geo.Pt(x+500, 2500)}, 0)
					i++
				}
			})
		})
	}
}

// BenchmarkServiceMixed interleaves batched writers with point-query
// readers (1 batch per 8 ops, 32 queries otherwise) — under a single
// lock every batch stalls all readers; shards let them proceed.
func BenchmarkServiceMixed(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			s, ids := benchService(b, shards)
			var seq atomic.Uint32
			seq.Store(1)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]Update, benchBatchSize)
				i := 0
				for pb.Next() {
					if i%8 == 0 {
						sq := seq.Add(1)
						for j := range batch {
							k := (i + j*37) % len(ids)
							batch[j] = Update{ID: ids[k], Update: core.Update{Report: benchReport(k, sq)}}
						}
						if err := s.ApplyBatch(batch); err != nil {
							b.Fatal(err)
						}
					} else {
						for q := 0; q < 32; q++ {
							s.Position(ids[(i*31+q)%len(ids)], float64(q))
						}
					}
					i++
				}
			})
		})
	}
}

// --- churn benchmarks: queries interleaved with full-rate ingest -------
//
// BenchmarkWithinChurn and BenchmarkNearestChurn are the live-index PR
// gates: every op applies one full 256-update batch (drift plus
// teleports, so objects keep crossing cell boundaries) and then runs
// four queries at the fresh report time. The "scan" sub-benchmark pins
// every shard to the brute-force path — exactly what the old snapshot
// index did under this workload, where each batch left the snapshot
// dirty and every interleaved query fell back to a scan. Each fails
// itself unless live answers >= 3x the scan baseline's queries/s at
// 10k objects (checked when both sides ran).
//
//	go test -bench=Churn -benchtime=1s ./internal/locserv

// churnReport keeps the fleet moving: a wrapping eastward drift at
// 10 m/s plus a ~1% teleport to the mirrored corner of the extent, so
// ingest continuously forces cell moves in the live index.
func churnReport(i int, seq uint32) core.Report {
	pos := geo.Pt(float64(i%100)*100, float64(i/100)*100)
	if (i+int(seq))%101 == 0 {
		pos = geo.Pt(9900-pos.X, 9900-pos.Y)
	} else {
		pos.X += float64(seq%60) * 10
	}
	return core.Report{Seq: seq, T: float64(seq), Pos: pos, V: 10, Heading: float64(i%628) / 100}
}

// forceScanPath pins every shard to the scan path by marking a
// phantom unbounded resident — the churn baseline.
func forceScanPath(s *Service) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.unbounded++
		sh.mu.Unlock()
	}
}

// benchChurn runs the ingest+query churn loop; query runs 4 times per
// applied batch. It returns the queries/s it reports.
func benchChurn(b *testing.B, forceScan bool, query func(b *testing.B, s *Service, seq uint32, q int)) float64 {
	s, ids := benchService(b, 8)
	if forceScan {
		forceScanPath(s)
	}
	batch := make([]Update, benchBatchSize)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seq := uint32(n + 2)
		for j := range batch {
			i := (n*benchBatchSize + j) % len(ids)
			batch[j] = Update{ID: ids[i], Update: core.Update{Report: churnReport(i, seq)}}
		}
		if err := s.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			query(b, s, seq, q)
		}
	}
	qps := float64(4*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/s")
	return qps
}

// churnPair runs query's live and scan sides and fails b unless live
// answered >= 3x the scan baseline's queries/s. A side -bench filtered
// out leaves its figure 0, and nothing is checked.
func churnPair(b *testing.B, query func(b *testing.B, s *Service, seq uint32, q int)) {
	var live, scan float64
	b.Run("live", func(b *testing.B) { live = benchChurn(b, false, query) })
	b.Run("scan", func(b *testing.B) { scan = benchChurn(b, true, query) })
	if live > 0 && scan > 0 && live < 3*scan {
		b.Fatalf("live %.0f queries/s is %.1fx the scan baseline's %.0f, want >= 3x", live, live/scan, scan)
	}
}

// BenchmarkWithinChurn: range queries against the live index vs. the
// scan baseline, interleaved with full-rate ingest (see block comment).
func BenchmarkWithinChurn(b *testing.B) {
	churnPair(b, func(b *testing.B, s *Service, seq uint32, q int) {
		x := float64((int(seq)+q)%50) * 100
		s.Within(geo.Rect{Min: geo.Pt(x, 2000), Max: geo.Pt(x+500, 2500)}, float64(seq))
	})
}

// BenchmarkNearestChurn: 10-NN queries against the live index vs. the
// scan baseline, interleaved with full-rate ingest.
func BenchmarkNearestChurn(b *testing.B) {
	churnPair(b, func(b *testing.B, s *Service, seq uint32, q int) {
		hits := s.Nearest(geo.Pt(float64((int(seq)+q)%100)*100, 5000), 10, float64(seq))
		if len(hits) != 10 {
			b.Fatalf("hits = %d", len(hits))
		}
	})
}

// --- quiet benchmarks: queries over long-quiet objects ------------------
//
// The churn gates above use one speed and fresh reports, where every
// displacement fold is tight. BenchmarkNearestQuiet and
// BenchmarkWithinQuiet are the gates for what the protocol is for —
// objects that have gone quiet: 10k objects on 16 shards at 0–22 m/s
// whose report ages follow the city stream's shape (p50 ≈ 14 s,
// p90 ≈ 46 s, max 180 s), so fast-stale and slow-fresh objects share
// cells and the index has to find objects that have really drifted
// v·age from their reports. "scan" pins every shard to the brute-force
// path.
//
//	go test -bench=Quiet -benchtime=1s -benchmem ./internal/locserv

// quietNow is the query time of the quiet benchmarks.
const quietNow = 200.0

// quietService returns benchObjects linear movers spread uniformly over
// a 10x10 km area with log-normal report ages before quietNow.
func quietService(b *testing.B, forceScan bool) *Service {
	b.Helper()
	rng := rand.New(rand.NewSource(15))
	s := NewSharded(16)
	batch := make([]Update, benchObjects)
	for i := range batch {
		id := ObjectID(fmt.Sprintf("veh-%05d", i))
		if err := s.Register(id, core.LinearPredictor{}); err != nil {
			b.Fatal(err)
		}
		age := math.Min(14*math.Exp(0.93*rng.NormFloat64()), 180)
		batch[i] = Update{ID: id, Update: core.Update{Report: core.Report{
			Seq: 1, T: quietNow - age,
			Pos:     geo.Pt(rng.Float64()*10000, rng.Float64()*10000),
			V:       rng.Float64() * 22,
			Heading: rng.Float64() * 2 * math.Pi,
		}}}
	}
	if err := s.ApplyBatch(batch); err != nil {
		b.Fatal(err)
	}
	if forceScan {
		forceScanPath(s)
	}
	return s
}

// quietPoint walks the query location over the area.
func quietPoint(n int) geo.Point {
	return geo.Pt(float64(n*37%100)*100+50, float64(n*61%100)*100+50)
}

// BenchmarkNearestQuiet: 10-NN over long-quiet objects. The live side
// also pins the query's allocation count: one heap and one frontier per
// fan-out worker, not per shard.
func BenchmarkNearestQuiet(b *testing.B) {
	run := func(b *testing.B, forceScan bool) float64 {
		s := quietService(b, forceScan)
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if hits := s.Nearest(quietPoint(n), 10, quietNow); len(hits) != 10 {
				b.Fatalf("hits = %d", len(hits))
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	b.Run("live", func(b *testing.B) {
		if allocs := run(b, false); allocs > 32 {
			b.Fatalf("live 10-NN allocates %.1f times per query, want <= 32", allocs)
		}
	})
	b.Run("scan", func(b *testing.B) { run(b, true) })
}

// BenchmarkWithinQuiet: 1 km x 1 km range queries over long-quiet
// objects.
func BenchmarkWithinQuiet(b *testing.B) {
	run := func(b *testing.B, forceScan bool) {
		s := quietService(b, forceScan)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			p := quietPoint(n)
			s.Within(geo.Rect{Min: geo.Pt(p.X-500, p.Y-500), Max: geo.Pt(p.X+500, p.Y+500)}, quietNow)
		}
	}
	b.Run("live", func(b *testing.B) { run(b, false) })
	b.Run("scan", func(b *testing.B) { run(b, true) })
}

// BenchmarkStoreThroughputInterleaved fixes a blind spot in
// BenchmarkStoreThroughput: there the queries run strictly between
// batches, so the store never answers a query while a batch holds the
// write locks. Here RunParallel schedules writer and reader ops
// concurrently — one op in eight applies a full churn batch while the
// others run the gate query mix against whatever the writers are doing.
func BenchmarkStoreThroughputInterleaved(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("sharded-%d", shards), func(b *testing.B) {
			s, ids := benchService(b, shards)
			var seq atomic.Uint32
			seq.Store(1)
			var op atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]Update, benchBatchSize)
				for pb.Next() {
					n := int(op.Add(1))
					if n%8 == 0 {
						sq := seq.Add(1)
						for j := range batch {
							i := (n*benchBatchSize + j) % len(ids)
							batch[j] = Update{ID: ids[i], Update: core.Update{Report: churnReport(i, sq)}}
						}
						if err := s.ApplyBatch(batch); err != nil {
							b.Fatal(err)
						}
					} else {
						qt := float64(seq.Load())
						if hits := s.Nearest(geo.Pt(float64(n%100)*100, 5000), 10, qt); len(hits) != 10 {
							b.Fatalf("hits = %d", len(hits))
						}
						x := float64(n%50) * 100
						s.Within(geo.Rect{Min: geo.Pt(x, 2000), Max: geo.Pt(x+500, 2500)}, qt)
						for q := 0; q < 8; q++ {
							s.Position(ids[(n*31+q*13)%len(ids)], qt)
						}
					}
				}
			})
		})
	}
}
