# Repeatable tier-1 gate: `make check` must pass before every merge.

GO ?= go

.PHONY: check fmt vet staticcheck build test race bench-check deadcode bench bench-all bench-locserv clean

# The gate benchmarks. Each one that states a bound asserts it itself,
# on the box that runs it, so `make bench` fails exactly when a bound
# breaks; there is no stored baseline. A throughput floor judges timed
# runs only (b.N > 1), never Go's one-op calibration probe. By entry:
#   PredictLongQuiet       runs only (prediction walk vs cursor)
#   SourceServerQuiet      cursor >= 5x the stateless path, ns/sample,
#                          and cursor <= 14 allocs/op (the samples
#                          allocate nothing)
#   ServerQueryFanout      runs only (one object's monotone queries)
#   FleetSteps10k          <= 58,000 + 200 x GOMAXPROCS allocs/op
#                          (10k-object fleet step; per object and per
#                          worker, none per sample)
#   GenerateFleet          <= 10,600 allocs/op (100 vehicles' routes,
#                          traces and sources on city 1; per vehicle,
#                          none per step or intersection)
#   MapQueryMix            runs only (map-predictor query mix)
#   IngestHTTP             >= 100k updates/s (frames -> POST /updates
#                          -> DeliverRecords -> 10-NN)
#   ClusterIngestQuery     >= 100k updates/s and <= 200 allocs/op (4
#                          nodes over in-process member streams,
#                          ring-routed ingest + merged 10-NN, every
#                          frame through the codecs)
#   ReplicatedIngestQuery  >= 100k updates/s and <= 320 allocs/op (the
#                          same at R=2)
#   FanInIngestQuery       runs only (two fan-in fronts, fed in turn)
#   MemberStream           runs only (one member-stream call pair over
#                          a loopback socket)
#   WithinChurn            live >= 3x forced scan, queries/s
#   NearestChurn           live >= 3x forced scan, queries/s
#   NearestQuiet           live 10-NN <= 32 allocs/query
#   WithinQuiet            runs only (range over long-quiet objects)
#   ObsRecordUntraced      runs only (zero allocations are pinned by
#                          obs's TestRecordNoAllocs)
BENCH_GATE = PredictLongQuiet|SourceServerQuiet|ServerQueryFanout|FleetSteps10k|GenerateFleet|MapQueryMix|IngestHTTP|ClusterIngestQuery|ReplicatedIngestQuery|FanInIngestQuery|MemberStream|WithinChurn|NearestChurn|NearestQuiet|WithinQuiet|ObsRecordUntraced
BENCH_PKGS = ./internal/core ./internal/locserv ./internal/sim ./internal/cluster ./internal/obs

check: fmt vet staticcheck build race bench-check

# Every Go file, bench/ included, must be gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

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

# Every function that no binary links (each main package built with
# inlining off, read back with `go tool nm`) must be on the allowlist
# with its reason; a listed function that is now linked or gone fails
# too, so the list cannot rot.
deadcode:
	$(GO) run ./internal/cmd/deadcode

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
