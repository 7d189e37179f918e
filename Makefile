# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench-e2e bench-e2e-compare bench-e2e-pairs microbench microbench-pairs vet fmt lint errlint cover loc experiments soak cluster restart-replay torture clean

all: vet test build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

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

# PAIRS alternating runs of WORKLOAD on the parent commit PARENT and on this
# working tree, seeds FIRST_SEED..FIRST_SEED+PAIRS-1, then bench-e2e-compare
# over the two records; the records' provenance (both sides' commits, and a
# dirty tree's diff sum) is written beside them (scripts/bench_pairs.sh).
PAIRS ?= 10
FIRST_SEED ?= 1
bench-e2e-pairs:
	scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(FIRST_SEED)

microbench:
	go test -run=XXX -bench=. -benchmem .

# ROUNDS interleaved runs of the micro-benchmarks matching BENCH in PKG, one
# test binary built on the parent commit PARENT and one on this working
# tree, then each metric's medians, the change's wins and an exact sign test
# (scripts/microbench_pairs.sh).
PKG ?= ./internal/core
BENCH ?= .
ROUNDS ?= 8
microbench-pairs:
	scripts/microbench_pairs.sh $(PARENT) $(PKG) '$(BENCH)' $(ROUNDS)

vet:
	go vet ./...

fmt:
	gofmt -w .

# Static checks: formatting, vet, the serving path's imports and (when
# installed) govulncheck. CI runs the same; install govulncheck locally with
# `go install golang.org/x/vuln/cmd/govulncheck@latest`. The serving path
# (the root package, internal/strategy, internal/cluster) must not import
# internal/vectorspace: Best Match's metric lives beside its scorer. A
# snapshot file is mapped in one place only, core.OpenSnapshotVerified.
# The CounterView shim serves bench/'s traced rungs only: nothing else calls
# NewCounterView or RecommendView outside tests.
# Scans in internal/strategy and internal/cluster read an A-GI row as its two
# runs (ActionRows), so an extended snapshot allocates nothing per row; none
# calls ImplsOfAction, which concatenates them.
# A goal tally is sized to the query (the goals its postings can reach), so
# no caller resets one with the library's goal count.
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	go run ./scripts/errlint
	! go list -f '{{join .Imports "\n"}}' . ./internal/strategy ./internal/cluster | grep -x goalrec/internal/vectorspace
	test "$$(git grep -c 'mmapFile(' -- '*.go' ':!internal/core/mmap_*.go')" = internal/core/snapshot.go:1
	test -z "$$(git grep -nE 'NewCounterView|RecommendView' -- '*.go' ':!bench' ':!internal/strategy/counterview.go' ':!*_test.go')"
	test -z "$$(git grep -n 'ImplsOfAction(' -- 'internal/strategy/*.go' 'internal/cluster/*.go' ':!*_test.go')"
	test -z "$$(git grep -nE 'Reset\([^)]*NumGoals\(\)' -- '*.go' ':!*_test.go')"
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

cover:
	go test ./... -coverprofile=cover.out && go tool cover -func=cover.out | tail -1

# Non-test Go lines outside bench/, per package directory and in total: the
# size simplicity changes are judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Overload a race-instrumented goalrecd with loadgen for ~30s and require
# every response to be 200/503/504 plus a clean SIGTERM shutdown.
soak:
	./scripts/soak.sh

# Race-instrumented 3-worker scatter-gather cluster next to a single-node
# reference: bit-identical rankings, a loadgen run with zero non-200s,
# SIGKILL a worker (degraded serving + bit-identical resume after restart),
# and a cluster-wide two-phase snapshot swap under load.
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
