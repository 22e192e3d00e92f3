# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-baseline bench-gate alloc-gate serve-smoke netserve-smoke serve-bench microbench profile golden figures report sweep chaos-smoke adaptive-smoke fuzz lint vet-fixtures clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Benchmark-regression harness: run every experiment at -parallel 1
# and 8 and write raw per-sample cells/sec + engine ops/sec to
# BENCH_engine.json (benchfmt format 2; see cmd/tintstat).
bench:
	$(GO) run ./cmd/tintbench -exp bench -scale 0.1 -repeats 2 -out BENCH_engine.json

# Regenerate the small fixed-seed report the CI bench-gate job diffs
# against with `tintstat -exact-ops` (review the diff: the engine
# ops/cells counters must only change when the simulation itself
# intentionally changes; the wall-clock fields are host-local noise).
bench-baseline:
	$(GO) run ./cmd/tintbench -exp bench -scale 0.05 -repeats 1 \
		-bench-parallel 1,2 -bench-samples 3 -out BENCH_smoke_baseline.json

# Local version of the CI statistical regression gate: two same-host
# harness runs diffed by tintstat, plus the deterministic -exact-ops
# check against the checked-in baseline. The A/B half runs wide open
# (-alpha 0.001 -threshold 30) because back-to-back runs on a busy
# host drift by 20-30% from scheduling noise alone; it only fires on
# catastrophic slowdowns. For a deliberate before/after comparison,
# run the harness on a quiet host and use tintstat's defaults
# (alpha 0.05, threshold 2%) instead.
bench-gate:
	$(GO) run ./cmd/tintbench -exp bench -scale 0.05 -repeats 1 \
		-bench-parallel 1,2 -bench-samples 3 -out /tmp/tint_bench_a.json
	$(GO) run ./cmd/tintbench -exp bench -scale 0.05 -repeats 1 \
		-bench-parallel 1,2 -bench-samples 3 -out /tmp/tint_bench_b.json
	$(GO) run ./cmd/tintstat -alpha 0.001 -threshold 30 \
		/tmp/tint_bench_a.json /tmp/tint_bench_b.json
	$(GO) run ./cmd/tintstat -exact-ops -threshold 1000000000 \
		BENCH_smoke_baseline.json /tmp/tint_bench_a.json

# Zero-allocation gate, two halves (see CONTRIBUTING.md):
#   1. The AllocsPerRun tests pin the serve colored fast path, the
#      miss path on a drained machine and the borrow-color rung, the
#      kernel's LLC-only parked fault and borrow-color ladder fault,
#      and a wire Alloc+Free exchange with a daemon at exactly 0
#      allocs/op. They must run without -race (the race detector's
#      instrumentation allocates; under -race they skip themselves).
#   2. tintstat -exact-allocs checks the engine harness's measured
#      allocs/op against the checked-in smoke baseline: a one-sided
#      growth gate (2% + 0.01 tolerance) over whole-process Mallocs
#      deltas divided by the deterministic op counters. It catches an
#      accidental per-op allocation on any hot path the suite
#      exercises, not just the serve front-end.
alloc-gate:
	$(GO) test -run TestZeroAlloc -count=1 -v ./internal/serve ./internal/kernel ./internal/wire
	$(GO) run ./cmd/tintbench -exp bench -scale 0.05 -repeats 1 \
		-bench-parallel 1,2 -bench-samples 3 -out /tmp/tint_alloc.json
	$(GO) run ./cmd/tintstat -exact-allocs -threshold 1000000000 \
		BENCH_smoke_baseline.json /tmp/tint_alloc.json

# Concurrent front-end shakeout: the kernel-vs-serve differential
# test and the all-cores hammer, both under the race detector (see
# DESIGN.md Sec. 11), then ten rounds of the park/probe stress test
# on the color buckets' occupancy index.
serve-smoke:
	$(GO) test -race -run 'TestDifferentialKernelVsServe|TestHammer' ./internal/serve
	$(GO) test -race -count=10 -run 'TestParkProbeStress' ./internal/serve

# Wire-path shakeout: the client<->daemon differential (byte-identical
# scheduler results and serving counters under all three admission
# policies, on both the data plane and the task plane), the
# malformed-stream survival test, the session-reclaim check, and the
# multi-process hammer — all under the race detector (see DESIGN.md
# Sec. 16).
netserve-smoke:
	$(GO) test -race -count=1 \
		-run 'TestDifferential|TestMultiProcessHammer|TestDaemonSurvivesGarbage|TestSessionCleanupReclaims' \
		./internal/wire
	$(GO) test -race -count=1 -run 'TestCloseIdempotent|TestConcurrentClose' ./internal/serve

# Serve-scaling harness: 16 clients over 1/2/4 shards plus a client
# sweep — and the wire path (connection scaling against an in-process
# tintserved daemon, then the daemon-scheduled task-churn matrix) —
# written to BENCH_serve.json with the previous report folded in as
# the baseline.
serve-bench:
	$(GO) run ./cmd/tintbench -exp serve -serve-ops 20000 -serve-out BENCH_serve.json

microbench:
	$(GO) test -bench=. -benchmem -benchtime=1x . ./internal/phys ./internal/cache ./internal/mem ./internal/kernel ./internal/engine

# CPU+heap profile of the suite experiment (the hot path behind every
# figure). Inspect with `go tool pprof cpu.prof`; see CONTRIBUTING.md.
profile:
	$(GO) run ./cmd/tintbench -exp fig11 -scale 0.1 -repeats 2 -parallel 1 -format csv \
		-cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Rewrite the committed output fixtures after an intentional format
# change (review the diff!).
golden:
	$(GO) test ./internal/bench -run TestGolden -update
	$(GO) test ./cmd/tintstat -run TestGolden -update

# Regenerate every paper figure at full scale (slow; see -scale).
figures:
	$(GO) run ./cmd/tintbench -exp all -repeats 3

# Grade every quantified claim of the paper against fresh runs.
report:
	$(GO) run ./cmd/tintreport

sweep:
	$(GO) run ./cmd/tintbench -exp sweep -sweep hop-cycles -scale 0.5 -repeats 1

# Quick graceful-degradation shakeout: every workload under two fault
# plans, each cell run twice and compared byte-for-byte (see
# EXPERIMENTS.md "chaos").
chaos-smoke:
	$(GO) run ./cmd/tintbench -exp chaos -scale 0.05 -repeats 1 \
		-plans refill-starve,pressure-storm

# Adaptive-policy shakeout under the race detector: the heterogeneous
# mix under every static policy plus the adaptive engine, clean and
# under the migrate-flaky fault plan, every cell run twice and
# compared DeepEqual, with the invariant auditor (check 7 included)
# after every phase. Result.Check() enforces the acceptance criteria:
# adaptive beats each static policy on aggregate throughput and cuts
# degraded allocations vs static MEM (see EXPERIMENTS.md "adaptive").
adaptive-smoke:
	$(GO) run -race ./cmd/tintbench -exp adaptive

# Every fuzz target for FUZZTIME each (CI's fuzz job: FUZZTIME=10s).
# -run=^$ skips the packages' tests; the seed corpora run in `make test`.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzMmap -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernel
	$(GO) test -fuzz=FuzzKernelInterleaving -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernel
	$(GO) test -fuzz=FuzzRadixPT -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernel
	$(GO) test -fuzz=FuzzColorPop -fuzztime=$(FUZZTIME) -run=^$$ ./internal/kernel
	$(GO) test -fuzz=FuzzHeapBlockTable -fuzztime=$(FUZZTIME) -run=^$$ ./internal/heap
	$(GO) test -fuzz=FuzzServePop -fuzztime=$(FUZZTIME) -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME) -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=$(FUZZTIME) -run=^$$ ./internal/bench
	$(GO) test -fuzz=FuzzSuiteRegistry -fuzztime=$(FUZZTIME) -run=^$$ ./internal/suite
	$(GO) test -fuzz=FuzzEngineHeapOps -fuzztime=$(FUZZTIME) -run=^$$ ./internal/engine

# vet plus the repo's own determinism/correctness/concurrency
# analyzers (cmd/tintvet); see CONTRIBUTING.md for the rules they
# enforce. Exit codes: 0 clean, 1 findings, 2 load error.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/tintvet ./...

# Analyzer self-tests: every analyzer's positive fixtures must be
# detected and its negative fixtures must stay silent (the atest
# `// want` harness under each analyzer's testdata).
vet-fixtures:
	$(GO) test ./internal/analysis/...

clean:
	$(GO) clean ./...
