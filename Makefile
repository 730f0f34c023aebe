# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race stress chaos bench bench-report bench-planner bench-dynamic bench-parallel bench-serve bench-sharded vet fmt fmt-check lint vuln experiments-unit experiments-small clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# MVCC stress tests (concurrent census vs mutating writer, maintainer
# convergence, live-engine ingest) plus the work-stealing determinism
# tests with randomized steal timing, repeated under the race detector.
stress:
	$(GO) test -race -shuffle=on -count=3 -run 'Stress|Stealing|Shard|Writer|Maintainer' ./internal/core/ ./internal/storage/ ./internal/graph/

# Crash-recovery soak: scripted filesystem faults (torn writes, failed
# fsyncs, crash-after-op) against the dynamic store, checking
# replay-or-truncate recovery and degraded-mode serving. Set CHAOS_ITERS
# / CHAOS_SEED to widen or reproduce a run.
chaos:
	./scripts/chaos_soak.sh

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Headline workloads as machine-readable JSON (checked in as BENCH_<n>.json),
# including the speedup against the recorded pre-CSR seed baseline.
bench-report:
	$(GO) run ./cmd/benchreport -o BENCH_1.json

# Query-planner metrics: optimization overhead per query and the
# cost-based vs boolean-heuristic head-to-head.
bench-planner:
	$(GO) run ./cmd/benchreport -suite 2 -o BENCH_2.json

# Dynamic-graph metrics: snapshot-acquisition overhead vs direct graph
# access, and incremental census maintenance vs full recompute over a
# mutation stream.
bench-dynamic:
	$(GO) run ./cmd/benchreport -suite 4 -o BENCH_4.json

# Worker-scaling table: the BENCH_4 census workload at 1/2/4/8 workers
# against the pre-kernel baseline (speedup and allocation-reduction
# acceptance ratios at the 4-worker point).
bench-parallel:
	$(GO) run ./cmd/benchreport -suite 6 -o BENCH_6.json

# Serving metrics: prepared-vs-unprepared latency, result-cache hit
# latency, and HTTP handler QPS at 1/4/8 concurrent clients.
bench-serve:
	$(GO) run ./cmd/benchreport -suite 7 -o BENCH_7.json

# Sharded-store metrics: durable ingest throughput at 1/2/4/8 shards,
# parallel replay-on-open, and census latency parity on a pinned sharded
# snapshot (the >=2x-at-4-shards criterion assumes >=4 CPUs; the report
# records gomaxprocs).
bench-sharded:
	$(GO) run ./cmd/benchreport -suite 8 -o BENCH_8.json

vet:
	$(GO) vet ./...

# Full static-analysis gate: vet, staticcheck (skipped with a notice if
# not installed locally; CI always runs it), and the repo's own egolint
# suite (cmd/egolint) enforcing the invariants in doc/INVARIANTS.md.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	$(GO) run ./cmd/egolint ./...

# Known-vulnerability scan; skipped with a notice if govulncheck is not
# installed locally (CI installs and runs it).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

# Fails listing any file gofmt would change (CI's formatting gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
	echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# Regenerate the paper's figures (seconds / minutes respectively).
experiments-unit:
	$(GO) run ./cmd/experiments -fig all -scale unit

experiments-small:
	$(GO) run ./cmd/experiments -fig all -scale small -v

clean:
	$(GO) clean ./...
