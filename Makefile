# CARDIRECT reproduction — developer targets.
#
# `make check` is the gate every change must pass: gofmt, vet, a full
# build, the test suite under the race detector (the parallel batch engine in
# internal/core is exercised with real worker pools, so -race is not
# optional), the cardirectd smoke tests and the bench/ module's own tests.
# Performance is gated in one place: `make bench-run` (BENCHMARK.json),
# parent against change.

GO ?= go

.PHONY: check fmt-check vet build test race smoke lint fuzz-smoke bench bench-short bench-check bench-run experiments loc

check: fmt-check vet build race smoke bench-check

# Fails listing every Go file of the root module (bench/ is its own) that
# gofmt would rewrite.
fmt-check:
	@out=$$(find . -name '*.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt-check: gofmt -w these files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomises test order within each package so order-dependent
# tests (shared fixtures, leaked globals) fail in CI instead of in the field.
race:
	$(GO) test -race -shuffle=on ./...

# End-to-end smoke of the cardirectd binary: serve the Greece fixture on
# an ephemeral port, hit the API over the wire, SIGTERM to a clean exit —
# then the durable shape: SIGKILL a daemon mid-edit-stream and assert the
# restart recovers a prefix of the acknowledged edits with relations
# identical to a from-scratch computation. The replication shape rides
# along: SIGKILL a tailing replica mid-stream, restart it on the same
# cache, assert it resumes from its last applied sequence and converges
# to the primary's generation — plus a 3-process primary/replica/router
# round-trip.
smoke:
	$(GO) test -count=1 -run 'TestCardirectdSmoke|TestCardirectdCrashRecovery|TestCardirectdReplicaResume|TestCardirectdRouter' ./cmd/cardirectd

# Static analysis beyond vet. staticcheck is optional tooling: run it when
# the binary is on PATH, skip with a note when it is not (CI images and the
# dev container may not ship it; nothing is downloaded here).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
	fi

# Short fuzz runs, 10 s per target. Two decoders of crash-damaged or remote
# input (WAL replay, the replication stream), the snapshot pct attribute,
# the one op switch every edit goes through (config.Tracked.Apply: a refused
# edit changes nothing, an accepted one relates like a fresh Track), and
# five differentials against a reference: the SoA kernels against the
# paper's transcription (relation and percent — their corpus carries the
# 1-ulp sliver reproducer), the huge-world tier stack against the exact
# kernel, the planner on against off, the parallel solver against the
# sequential one. CI runs these; locally, crank -fuzztime.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzParsePct -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzTrackedApply -fuzztime=10s ./internal/config
	$(GO) test -run='^$$' -fuzz=FuzzPlannerDifferential -fuzztime=10s ./internal/query
	$(GO) test -run='^$$' -fuzz=FuzzLoDDifferential -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzMBBFastPath$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzMBBFastPathPct$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSolverDifferential -fuzztime=10s ./internal/reason
	$(GO) test -run='^$$' -fuzz=FuzzReplicationStream -fuzztime=10s ./internal/replica

# The paper-shaped benchmark tables (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# One iteration of every benchmark — a smoke test that the benchmark
# harness itself still runs; CI wires this next to `make check`.
bench-short:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# bench/ is a module of its own (replace cardirect => ../) that `go build
# ./...` and `go test ./...` at the root never compile, yet it imports
# internal/query, serve, config, core, ...: vet and test it here so an API
# change cannot break the repo's benchmark silently (< 1 s: fake clock, no
# daemons).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The repo's benchmark (BENCHMARK.json): all four workloads on the real
# cardirectd binary, ~2.5 min; builds into .bench_build/.
bench-run:
	bash bench/run.sh --seed 1

# Print the paper-shaped experiment tables (E1–E20, E22–E24) at quick
# sizes. It gates nothing: the ratio floors are tests of
# internal/experiments, and bench/ is the one performance gate.
experiments:
	$(GO) run ./cmd/cdrbench -quick

# The size figure simplicity PRs quote: non-test Go lines outside bench/
# (a module of its own, bounded by its own README), in total and per
# internal/ package.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l | xargs printf '%6d  total (non-test Go outside bench/)\n'
	@for d in internal/*/; do find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs printf "%6d  $$d\n"; done
