# Repeatable tier-1 gate: `make check` must pass before every merge.

GO ?= go

.PHONY: check vet staticcheck build test race bench-check bench bench-all bench-locserv clean

# BENCH_JSON is where `make bench` writes the machine-readable gate
# numbers; bump the index with the PR that changes the tracked set.
# BENCH_BASELINE is the previous committed gate file the fresh numbers
# are compared against: any gate metric regressing by more than
# BENCH_MAXREGRESS (relative) fails the target.
BENCH_JSON ?= BENCH_11.json
BENCH_BASELINE ?= BENCH_11.json
BENCH_MAXREGRESS ?= 0.30
# The gate benchmarks: the prediction-walk/cursor pair, the end-to-end
# source+server quiet-period pair, the 10k-object fleet step, the
# query-heavy map-predictor store mix, the networked ingest pipeline
# (wire frames -> HTTP POST /updates -> ApplyBatch -> query fan-out;
# gate: >= 100k updates/s), the 4-node cluster scatter-gather pipeline
# (ring-routed ingest + merged 10-NN; gate: >= 100k updates/s), the
# same pipeline at replication factor 2 (each batch delivered to both
# owners, queries merged on freshest Seq; gate: >= 100k updates/s),
# the live-index churn pair
# (range and 10-NN queries interleaved with full-rate ingest at 10k
# objects; gate: live >= 3x the scan baseline's queries/s), the
# long-quiet pair (the same queries over 10k objects whose report ages
# follow the city stream's shape, live vs forced scan; gate: the live
# 10-NN allocates <= 32 times), and the
# untraced metrics record path (sampler check + histogram record;
# gate: zero allocations — instrumentation must stay free on the hot
# path).
BENCH_GATE = PredictLongQuiet|SourceServerQuiet|ServerQueryFanout|FleetSteps10k|MapQueryMix|IngestHTTP|ClusterIngestQuery|ReplicatedIngestQuery|WithinChurn|NearestChurn|NearestQuiet|WithinQuiet|ObsRecordUntraced
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

# Gate benchmarks with allocation tracking, emitted as $(BENCH_JSON)
# (ns/op, ns/sample, B/op, allocs/op per benchmark) so the perf
# trajectory of the hot paths is tracked from PR to PR. The raw output
# is staged in a temp file so a benchmark failure fails the target
# instead of being masked by the parse pipe. The fresh numbers are then
# gated against $(BENCH_BASELINE): the trajectory is enforced, not just
# recorded.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem \
		$(BENCH_PKGS) > $(BENCH_JSON).raw \
		|| { cat $(BENCH_JSON).raw; rm -f $(BENCH_JSON).raw; exit 1; }
	cat $(BENCH_JSON).raw
	$(GO) run ./cmd/benchjson < $(BENCH_JSON).raw > $(BENCH_JSON)
	rm -f $(BENCH_JSON).raw
	$(GO) run ./cmd/benchjson -compare $(BENCH_JSON) -baseline $(BENCH_BASELINE) -maxregress $(BENCH_MAXREGRESS)

# Full benchmark sweep (paper artifacts + micro benchmarks).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Sharded location-store benchmarks: compare shards-1 (single lock)
# against shards-8/shards-64 at 10k objects.
bench-locserv:
	$(GO) test -bench=Service -benchtime=1s ./internal/locserv

clean:
	$(GO) clean ./...
