# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-e2e bench-e2e-compare benchdiff microbench vet fmt lint errlint cover experiments soak cluster restart-replay torture clean BENCH_PR1.json BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json BENCH_PR10.json

all: vet test build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench: BENCH_PR10.json

# Figure 7 sweep at the README's reference configuration; the JSON feeds the
# README performance table. BENCH_PR1.json is the pre-kernel baseline the
# PR-4 acceptance ratios are measured against; BENCH_PR4.json is the
# counter-kernel scoring stack; BENCH_PR5.json is the same sweep and seed on
# the bound-driven pruned kernels over the impact-ordered layout.
BENCH_PR1.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-bench-json BENCH_PR1.json

BENCH_PR4.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-bench-json BENCH_PR4.json

BENCH_PR5.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering \
		-bench-json BENCH_PR5.json

# BENCH_PR6.json is the PR-5 sweep plus the cold-start cells (legacy
# decode+rebuild vs mmap snapshot open, as cold_start_ms).
BENCH_PR6.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering -cold-start \
		-bench-json BENCH_PR6.json

# BENCH_PR7.json adds the user-append cells: append+recommend over a
# materialized per-user counter view (user-append/*) against the from-scratch
# scan the same history pays without one (user-scan/*).
BENCH_PR7.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering -cold-start -user-append \
		-bench-json BENCH_PR7.json

# BENCH_PR8.json is the PR-7 sweep re-run on the fault-tolerant storage
# stack (injectable filesystem seam, whole-file snapshot checksums, sidecar
# WAL rotation): same cells, and the WAL-append and cold-start numbers must
# hold within the benchdiff gate.
BENCH_PR8.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering -cold-start -user-append \
		-bench-json BENCH_PR8.json

# BENCH_PR9.json adds the paged-serving cells: Zipf-skewed posting-row scans
# raw vs block-compressed, cold vs served through the shared decoded-block
# cache (block-cache/*), with per-cell cache counters.
BENCH_PR9.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering -cold-start -user-append -block-cache \
		-bench-json BENCH_PR9.json

# BENCH_PR10.json adds the sharded-serving cells (cluster/*): scatter-gather
# throughput of the same strategies on in-process shard clusters of 1, 2 and
# 4 workers, at the first sweep size.
BENCH_PR10.json:
	go run ./cmd/experiments -skip-datasets \
		-scaling-sizes 250000,1000000 -scaling-actions 10000 -seed 1 \
		-scaling-queries 200 \
		-pruning -impact-ordering -cold-start -user-append -block-cache \
		-cluster \
		-bench-json BENCH_PR10.json

# Per-cell latency deltas between the previous stack and the current one;
# exits non-zero on any >15% regression (the CI gate).
benchdiff:
	go run ./scripts/benchdiff BENCH_PR9.json BENCH_PR10.json

# One run of the repository benchmark (BENCHMARK.json, bench/README.md):
# goalrecd is built from this checkout and driven over loopback, and the
# run's metrics are appended to RECORD when it is set. TRACE=1 adds the
# traced run and prints the per-layer metrics instead of the gated ones.
WORKLOAD ?= bestmatch_kernel
SEED ?= 1
TRACE ?= 0
bench-e2e:
	go run ./bench -workload $(WORKLOAD) -seed $(SEED) -seconds 18 -trace $(TRACE) $(if $(RECORD),-record $(RECORD))

# Judge the runs recorded in B (the change) against those in A (the parent)
# with the bounds of BENCHMARK.json.
bench-e2e-compare:
	go run ./bench compare $(A) $(B)

microbench:
	go test -run=XXX -bench=. -benchmem .

vet:
	go vet ./...

fmt:
	gofmt -w .

# Static checks: formatting, vet, and (when installed) govulncheck. CI runs
# the same three; install locally with
# `go install golang.org/x/vuln/cmd/govulncheck@latest`.
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	go run ./scripts/errlint
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

cover:
	go test ./... -coverprofile=cover.out && go tool cover -func=cover.out | tail -1

# Overload a race-instrumented goalrecd with loadgen for ~30s and require
# every response to be 200/503/504 plus a clean SIGTERM shutdown.
soak:
	./scripts/soak.sh

# Race-instrumented 3-worker scatter-gather cluster next to a single-node
# reference: bit-identical rankings, distributed loadgen, SIGKILL a worker
# (degraded serving + bit-identical resume after restart), and a cluster-wide
# two-phase snapshot swap under load.
cluster:
	./scripts/cluster.sh

# Ingest into a race-instrumented goalrecd with a durable store, SIGTERM it,
# restart on the same directory, and require the epoch and exact rankings to
# survive the WAL replay.
restart-replay:
	./scripts/restart_replay.sh

# Flag silently dropped Close/Sync/Remove/Rename errors in the persistence
# packages; `_ =` and defer are the only sanctioned discards.
errlint:
	go run ./scripts/errlint

# Crash-point torture: fail, then crash, every filesystem operation the
# store performs across an ingest/compact/restart workload and require
# recovery bit-identical to a replay of the acked writes (race-instrumented).
torture:
	./scripts/torture.sh

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	go run ./cmd/experiments -scale 0.3 -max-users 400

clean:
	rm -f cover.out test_output.txt bench_output.txt
