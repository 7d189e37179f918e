# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench-e2e bench-e2e-compare microbench vet fmt lint errlint cover experiments soak cluster restart-replay torture clean

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
