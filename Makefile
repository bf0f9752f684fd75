# Repeatable tier-1 gate: `make check` must pass before every merge.

GO ?= go

.PHONY: check vet staticcheck build test race bench-check bench bench-all bench-locserv clean

# The gate benchmarks. Each one that states a bound asserts it itself,
# on the box that runs it, so `make bench` fails exactly when a bound
# breaks; there is no stored baseline. By entry:
#   PredictLongQuiet       runs only (prediction walk vs cursor)
#   SourceServerQuiet      cursor >= 5x the stateless path, ns/sample
#   ServerQueryFanout      runs only (one object's monotone queries)
#   FleetSteps10k          runs only (10k-object fleet step)
#   MapQueryMix            runs only (map-predictor query mix)
#   IngestHTTP             >= 100k updates/s (frames -> POST /updates
#                          -> ApplyBatch -> 10-NN)
#   ClusterIngestQuery     >= 100k updates/s (4 nodes, ring-routed
#                          ingest + merged 10-NN)
#   ReplicatedIngestQuery  >= 100k updates/s (the same at R=2)
#   FanInIngestQuery       runs only (two fan-in fronts, fed in turn)
#   MemberStream           runs only (one member-stream call pair over
#                          a loopback socket)
#   WithinChurn            live >= 3x forced scan, queries/s
#   NearestChurn           live >= 3x forced scan, queries/s
#   NearestQuiet           live 10-NN <= 32 allocs/query
#   WithinQuiet            runs only (range over long-quiet objects)
#   ObsRecordUntraced      runs only (zero allocations are pinned by
#                          obs's TestRecordNoAllocs)
BENCH_GATE = PredictLongQuiet|SourceServerQuiet|ServerQueryFanout|FleetSteps10k|MapQueryMix|IngestHTTP|ClusterIngestQuery|ReplicatedIngestQuery|FanInIngestQuery|MemberStream|WithinChurn|NearestChurn|NearestQuiet|WithinQuiet|ObsRecordUntraced
BENCH_PKGS = ./internal/core ./internal/locserv ./internal/sim ./internal/cluster ./internal/obs

check: vet staticcheck build race bench-check

vet:
	$(GO) vet ./...

# staticcheck runs when installed (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@latest). The gate stays
# green without it so an offline checkout can still `make check`.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own module (the repo's benchmark, BENCHMARK.json), so
# `./...` above never compiles it: vet and test it here, where a
# narrowed internal/ API would break it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Gate benchmarks with allocation tracking. The target fails when a
# benchmark fails, and for no other reason; the repo's measured perf
# trajectory is bench/ (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem $(BENCH_PKGS)

# Full benchmark sweep (paper artifacts + micro benchmarks).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Sharded location-store benchmarks: compare shards-1 (single lock)
# against shards-8/shards-64 at 10k objects.
bench-locserv:
	$(GO) test -bench=Service -benchtime=1s ./internal/locserv

clean:
	$(GO) clean ./...
