# CI entry points. `make ci` is the gate: the formatting check (fmt-check:
# gofmt -l prints nothing), the static protocol lint, the
# lock-table check, the escape gate, vet, build, race-enabled tests, the
# allocs/op gate (so a fast-path allocation regression fails here, not
# just in benchmark output), a bounded native-fuzz pass over the dispatch
# path, the frame decoder and one serve session, the serve smoke, the four
# examples run under the race detector, the repository
# benchmark's own vet and tests (bench-smoke, the one benchmark leg), and
# the coverage floor for the runtime-critical packages. The bench-*
# `go test -bench` targets are developer microbenchmarks and gate nothing;
# performance claims come from `bash bench/run.sh` (BENCHMARK.json).

# A recipe that pipes `go test` into grep or tee must fail when `go test`
# does, not report the last command's status.
SHELL := bash
.SHELLFLAGS := -eu -o pipefail -c

GO ?= go

# Extra flags for `make lint`, e.g. make lint LINTFLAGS="-json" or
# LINTFLAGS="-rules read-before-wait".
LINTFLAGS ?=

# Coverage floor (percent) for internal/core + internal/queue combined.
# Measured 94.4% when introduced; the floor leaves headroom for refactors
# while still failing the build if whole subsystems lose their tests.
COVER_FLOOR ?= 90
COVER_PKGS  := ./internal/core ./internal/queue

# Bounded fuzz budget for CI. `make fuzz FUZZTIME=5m` explores for real.
FUZZTIME ?= 10s

.PHONY: ci fmt-check lint lock-table-check escape-gate vet build test race fuzz-smoke fuzz cover allocs-gate serve-smoke examples-smoke bench-smoke bench-fastpath bench-batch bench bench-serve bench-telemetry bench-update

ci: fmt-check lint lock-table-check escape-gate vet build race allocs-gate fuzz-smoke serve-smoke examples-smoke bench-smoke cover

# Formatting gate: every tracked Go file is gofmt-clean. The linter's
# fixtures under internal/lint/testdata are inputs, not code, and exempt.
fmt-check:
	@test -z "$$(git ls-files '*.go' | grep -v '^internal/lint/testdata/' | xargs gofmt -l | tee /dev/stderr)" \
		|| { echo "fmt-check: the files above need gofmt"; exit 1; }
	@echo "fmt-check: gofmt -l prints nothing"

# Static whole-program check (protocol rules + lockorder + atomics) over
# the whole module (./... skips the linter's own testdata fixtures by
# design), then over the examples alone, as the README runs it: that load
# sees internal/core only through the root package's export data.
# Findings are suppressed one at a time with
# `//dtt:ignore <rule> -- <justification>`; see internal/lint and the
# README's "Static checking" section.
lint:
	$(GO) run ./cmd/dttlint $(LINTFLAGS) ./...
	$(GO) run ./cmd/dttlint $(LINTFLAGS) ./examples/...

# The lock lattice lives once in internal/lint/lockorder.go and is
# rendered into DESIGN.md between lock-order-table markers; this fails if
# the two drift.
lock-table-check:
	@$(GO) run ./cmd/dttlint -locktable > .locktable.tmp
	@awk '/<!-- lock-order-table:begin -->/{f=1;next} /<!-- lock-order-table:end -->/{f=0} f' DESIGN.md \
		| diff -u - .locktable.tmp \
		|| { rm -f .locktable.tmp; echo "DESIGN.md lock-order table differs from dttlint -locktable"; exit 1; }
	@rm -f .locktable.tmp
	@echo "lock-table-check: DESIGN.md matches dttlint -locktable"

# Compiler-level zero-allocation gate for the triggering fast paths: fails
# if `go build -gcflags=-m` reports new heap allocations inside the pinned
# functions (TStore*/TUpdate*, queue and delta hot paths, the serve
# plane's notify push and frame encode). Intentional first-touch
# allocations are justified with `//dtt:escape-ok -- <reason>`. The same
# run fails when a leaf the per-word paths need inlined (Buffer.Load,
# Buffer.Store and System.Compute — the probe seam's three accessors — the
# pending-bit helpers, ...) loses its "can inline" diagnostic.
escape-gate:
	$(GO) run ./cmd/escapegate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bounded runs of the native fuzz targets: the tstore dispatch path, the
# network frame decoder and one session's request handling. The committed
# corpora under internal/core/testdata/fuzz and internal/serve/testdata/fuzz
# seed them. New crashers are written there by `go test` — commit them as
# regression tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSession$$' -fuzztime $(FUZZTIME) ./internal/serve

fuzz: fuzz-smoke

# End-to-end acceptance of the network trigger plane: an in-process
# loopback server, one scripted session, a /metrics scrape, and the
# counter identity (fired = enqueued + squashed + overflowed) asserted
# from the scraped values. Fails non-zero on any mismatch.
serve-smoke:
	$(GO) run ./cmd/dttclient -smoke

# The public-API smoke: README's four example programs, run (not just
# compiled) under the race detector. Each must exit 0.
examples-smoke:
	for ex in examples/*/; do $(GO) run -race ./$$ex > /dev/null; echo "examples-smoke: $$ex ok"; done

# The repository benchmark (bench/, declared by BENCHMARK.json) is its own
# module, so `go vet ./...` and `go test ./...` from the root never see it
# and a signature change in internal/core would break it silently until
# benchmark time. Vet it and run its short tests against this tree.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage floor for the runtime-critical packages. Fails if the combined
# statement coverage of $(COVER_PKGS) drops below $(COVER_FLOOR)%. The
# profile is kept on success (go tool cover -html=cover.out) but removed
# on any failure so a red run leaves no stray cover.out behind.
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS) || { rm -f cover.out; exit 1; }
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) ' \
		/^total:/ { sub(/%/, "", $$3); \
			printf "coverage: %s%% (floor %s%%)\n", $$3, floor; \
			if ($$3 + 0 < floor + 0) { print "coverage below floor"; exit 1 } }' \
		|| { rm -f cover.out; exit 1; }

# Dispatch fast-path microbenchmarks; -benchmem prints allocs/op so the
# numbers quoted in CHANGES.md can be regenerated. BenchmarkDispatchDrain
# (ns/entry) and BenchmarkMergeDispatch (ns/word) price the worker's
# per-entry bracket and the merge's admission on the immediate backend;
# BenchmarkComputeUnprobed/Probed price the probe seam per arithmetic op.
# TestTStoreFastPathAllocs (run as part of `make race`/`make test`) is what
# actually fails the build on a regression. The output is teed to
# bench-fastpath.out (gitignored) so a before/after pair can be compared
# with benchstat.
bench-fastpath:
	$(GO) test -run '^$$' -bench 'BenchmarkTStore|BenchmarkQueuePending|BenchmarkDispatchDrain|BenchmarkMergeDispatch|BenchmarkCompute(Unprobed|Probed)$$' -benchmem . | tee bench-fastpath.out
	@echo "wrote bench-fastpath.out; compare runs with: benchstat <saved-baseline>.out bench-fastpath.out"

# Explicit allocation gate for the triggering-store fast paths, telemetry
# off and on, the serve plane's subscribed request over loopback, the
# dispatch side (a 4096-entry batch or merge, drained by the worker's
# claims) and the overflow path (a scalar or 64-word write that overflows
# and runs inline on the writer). The same tests run inside `make race`, but a dedicated target
# runs them without -race instrumentation (which changes allocation
# behaviour) and names the contract in the CI log.
allocs-gate:
	$(GO) test -count=1 -run 'Test(TStore(Batch)?|TUpdate|ServeNotify)FastPathAllocs|Test(DispatchDrain|TStoreOverflow)Allocs' -v . | grep -E '^(=== RUN|--- (PASS|FAIL)|FAIL|ok)'

# Batched triggering-store benchmarks: the scalar-vs-batch throughput pair
# plus the silent and squash batch paths, with allocation reporting. The
# batch=64 changing case is the headline number (>=2x scalar per-store
# throughput at 0 allocs/op); TestTStoreBatchFastPathAllocs in the
# allocs-gate is what fails the build if the 0 allocs/op contract breaks.
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkTStoreBatch' -benchmem . | tee bench-batch.out
	@echo "wrote bench-batch.out; compare runs with: benchstat <saved-baseline>.out bench-batch.out"

# Commutative-update plane benchmarks: the producer-side folds, the full
# fold->merge->drain cycle, and the hot-contended A/B against TStoreBatch
# from 8 producers over one shared 64-word window. The A/B's tupdatebatch
# ns/store at <= 1/4 of tstorebatch is the headline ratio (>=4x per-store
# throughput under contention at 0 allocs/op); TestTUpdateFastPathAllocs
# in the allocs-gate is what fails the build if the allocation contract
# breaks.
bench-update:
	$(GO) test -run '^$$' -bench 'BenchmarkTUpdate' -benchmem . | tee bench-update.out
	@echo "wrote bench-update.out; compare runs with: benchstat <saved-baseline>.out bench-update.out"

# Loopback benchmark of the network trigger plane: one session
# round-tripping 64-word batches through a real TCP socket. ns/store here
# minus bench-batch's batch64 ns/store is the framing + syscall bill; both
# sides must hold 0 allocs/op in steady state.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeBatch' -benchmem . | tee bench-serve.out
	@echo "wrote bench-serve.out; compare runs with: benchstat <saved-baseline>.out bench-serve.out"

# Full evaluation benchmark sweep (paper tables/figures).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The observability bill: the same fast paths with the telemetry plane off
# (BenchmarkTStoreSilent/Changing/Squash/Uncovered) and on
# (BenchmarkTStoreTelemetry*), side by side. allocs/op must read 0 in both
# halves; the ns/op delta on the changing path is the cost of the enqueue
# timestamp plus three histogram observes per dispatched instance.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkTStore(Telemetry)?(Silent|Changing|Squash|Uncovered)$$' -benchmem . | tee bench-telemetry.out
	@echo "wrote bench-telemetry.out; compare runs with: benchstat <saved-baseline>.out bench-telemetry.out"
