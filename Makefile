GO ?= go

# ci is the tier-1 gate: static checks (gofmt, vet, staticcheck), a full
# build, the race-enabled test suite (which exercises the parallel sweep
# executor), the perfbench module's vet and tests, a short substrate
# benchmark smoke, schema validation of the committed BENCH_*.json
# trajectory, a chaos smoke run, and a fault-spec fuzz smoke.
.PHONY: ci
ci: fmt vet staticcheck rand-audit build test perfbench bench-smoke bench-check chaos chaos-serve fuzz-smoke scenarios replay-golden

# fmt fails when any Go file in the tree (the perfbench module included)
# is not gofmt-clean, listing the offenders.
.PHONY: fmt
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting (run gofmt -w):"; \
		echo "$$out"; \
		exit 1; \
	fi; \
	echo "gofmt: clean"

.PHONY: vet
vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools with zero findings required. The
# binary is not vendored; the target is a no-op where it is not installed
# (the GitHub workflow installs a pinned version, so CI always runs it).
.PHONY: staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# rand-audit fails if randomness-sensitive packages construct their own RNGs
# instead of drawing from named sim.Engine.Rand streams. Direct rand.New /
# rand.NewSource calls there would silently break byte-identical reruns;
# this grep lint keeps new offenders out.
.PHONY: rand-audit
rand-audit:
	@offenders=$$(grep -rn 'rand\.New\|rand\.NewSource' \
		--include='*.go' internal/workload internal/serve internal/scenario \
		| grep -v _test.go; true); \
	if [ -n "$$offenders" ]; then \
		echo "rand-audit: direct RNG construction in engine-seeded packages:"; \
		echo "$$offenders"; \
		echo "draw from sim.Engine.Rand(name) instead"; \
		exit 1; \
	fi; \
	echo "rand-audit: clean"

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test -race -timeout 45m ./...

# perfbench is the repo benchmark's own module (polca/perfbench, built
# against this tree through a replace directive). The root go.mod does not
# include it, so build, vet and test it here to keep its use of the obs,
# cluster and replay APIs compiling.
.PHONY: perfbench
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The hot-path benchmark set tracked by the BENCH_*.json trajectory: the
# substrate micro-benchmarks (event heap, timers, observability fast paths,
# quantile sketch, serving-scheduler iteration) plus the end-to-end
# serve-mode day. BENCH_MICRO is the -bench regexp for the fast ones;
# BenchmarkServeDay runs separately because one iteration simulates a full
# 16-server day and needs its own -benchtime. BENCH_REQUIRE lists every
# name; polca-bench -require fails the target if any stops matching, so a
# renamed benchmark can never silently drop out of the smoke.
BENCH_MICRO = ^(BenchmarkEngineEvents|BenchmarkQueuePushPop|BenchmarkTimerStop|BenchmarkTracerDisabled|BenchmarkTracerEnabled|BenchmarkServeTracerDisabled|BenchmarkSpanTracerDisabled|BenchmarkQuantileSketch|BenchmarkScheduler|BenchmarkTSDBIngest|BenchmarkRuleEval|BenchmarkRetryQueue|BenchmarkScenarioSample|BenchmarkDecisionRecord)$$
BENCH_REQUIRE = BenchmarkEngineEvents,BenchmarkQueuePushPop,BenchmarkTimerStop,BenchmarkTracerDisabled,BenchmarkTracerEnabled,BenchmarkServeTracerDisabled,BenchmarkSpanTracerDisabled,BenchmarkQuantileSketch,BenchmarkScheduler,BenchmarkTSDBIngest,BenchmarkRuleEval,BenchmarkRetryQueue,BenchmarkScenarioSample,BenchmarkDecisionRecord,BenchmarkServeDay
# The telemetry ingest, rule-evaluation, failover-requeue, scenario
# request-generation, and decision-input recording ticks run inside the
# simulator's hot loop; -zero-alloc hard-fails the build the moment any of
# them allocates, with no baseline artifact needed.
BENCH_ZERO_ALLOC = BenchmarkTSDBIngest,BenchmarkRuleEval,BenchmarkRetryQueue,BenchmarkScenarioSample,BenchmarkDecisionRecord
BENCH_PKGS = . ./internal/serve ./internal/obs ./internal/cluster ./internal/scenario

# bench-smoke runs the hot-path set briefly — enough to catch an allocation
# regression on the event path, the disabled observability fast paths, the
# continuous-batching iteration loop, or the t-digest Add path without
# paying for a full run — then asserts every listed benchmark actually ran.
.PHONY: bench-smoke
bench-smoke:
	@set -e; out=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem -benchtime 200000x $(BENCH_PKGS) > $$out; \
	$(GO) test -run '^$$' -bench '^BenchmarkServeDay$$' -benchmem -benchtime 1x . >> $$out; \
	cat $$out; \
	$(GO) run ./cmd/polca-bench -require '$(BENCH_REQUIRE)' -zero-alloc '$(BENCH_ZERO_ALLOC)' $$out; \
	rm -f $$out

# bench-json runs the hot-path set at full benchtime and writes the
# versioned polca-bench/v1 artifact (BENCH_JSON, default BENCH_new.json).
# Compare against the last committed snapshot with
#   go run ./cmd/polca-bench -compare BENCH_N.json BENCH_new.json
# which fails on >15% ns/op regressions and on any allocs/op increase.
BENCH_JSON ?= BENCH_new.json
.PHONY: bench-json
bench-json:
	@set -e; out=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem $(BENCH_PKGS) > $$out; \
	$(GO) test -run '^$$' -bench '^BenchmarkServeDay$$' -benchmem -benchtime 3x . >> $$out; \
	cat $$out; \
	$(GO) run ./cmd/polca-bench -require '$(BENCH_REQUIRE)' -zero-alloc '$(BENCH_ZERO_ALLOC)' $$out > /dev/null; \
	$(GO) run ./cmd/polca-bench -o $(BENCH_JSON) $$out; \
	rm -f $$out

# bench-check schema-validates every committed BENCH_*.json so the
# trajectory artifacts cannot rot unnoticed.
.PHONY: bench-check
bench-check:
	$(GO) run ./cmd/polca-bench -check BENCH_*.json

# bench-compare regenerates the artifact and diffs it against the newest
# committed BENCH_*.json. Wall-clock deltas are advisory on shared runners;
# allocs/op increases always fail.
.PHONY: bench-compare
bench-compare:
	@set -e; \
	base=$$(ls BENCH_*.json 2>/dev/null | grep -v '^$(BENCH_JSON)$$' | sort -V | tail -1); \
	if [ -z "$$base" ]; then echo "bench-compare: no committed BENCH_*.json baseline"; exit 1; fi; \
	$(MAKE) bench-json BENCH_JSON=$(BENCH_JSON); \
	$(GO) run ./cmd/polca-bench -compare -advisory-time $$base $(BENCH_JSON)

# bench runs every benchmark, including full artifact regeneration.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# chaos is a short fault-sweep smoke: one day on a small row under the mixed
# scenario with every degradation path armed. It exercises the injector, the
# telemetry guard, the deadman watchdog, bounded retries, and stale-command
# drops end to end; any panic or spec-parse regression fails the target.
.PHONY: chaos
chaos:
	$(GO) run ./cmd/polca-sim -days 1 -servers 16 \
		-faults "tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,crash=6h+20,oobburst=11h+15m,kill=2@8h+1h,slow=2:1.5" \
		-guard -watchdog 5 -oob-retries 8 -oob-backoff 4s -drop-stale

# chaos-serve is the serve-mode counterpart: the race-enabled acceptance
# suite for request failover, class shedding, circuit breaking, and drain
# windows, plus one end-to-end chaos day on the serving backend with the
# full fault-tolerance stack armed.
.PHONY: chaos-serve
chaos-serve:
	$(GO) test -race -run 'TestServeFailoverBeatsDropOnly|TestServeClassShedProtectsCritical|TestServeSafetyInvariantUnderFaults|TestServeFaultToleranceDeterministic|TestServeKVConservationAcrossFailover|TestServeQuiescentFTDoesNotPerturb|TestServeDrainWindows' ./internal/cluster
	$(GO) run ./cmd/polca-sim -days 1 -servers 16 -serve \
		-faults "tdrop=0.05,crash=6h+20,oobburst=11h+15m,kill=4@8h+1h,drain=2@14h+30m" \
		-guard -watchdog 5 -oob-retries 8 -oob-backoff 4s -drop-stale \
		-retries 3 -retry-backoff 4s -class-shed -circuit-sheds 10 -watchdog-drain

# fuzz-smoke runs the DSL parser fuzzers briefly: round-trip and
# never-panic properties over the faults and scenario grammars.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFaultSpec -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzScenarioSpec -fuzztime 10s ./internal/scenario

# scenarios regenerates the committed scenarios/*.scn files from the builtin
# library and verifies the two are in lockstep (plus the canonical
# round-trip of every file). Run it after editing a builtin in
# internal/scenario/library.go.
.PHONY: scenarios
scenarios:
	$(GO) run ./internal/scenario/gen
	$(GO) test -run 'TestLibraryFilesMatchBuiltins|TestBuiltinsAreCanonical' ./internal/scenario

# replay-golden pins the counterfactual-replay pipeline end to end: the
# live row must still record the committed decision-log and span fixtures
# byte for byte (regenerated in place, then checked against git, like
# scenarios), the polca-replay CLI over them must reproduce the golden
# report byte for byte (self-replay fidelity line included), and -self
# must exit clean. Refresh after intentional report changes with
#   go test -run TestGolden -update ./cmd/polca-replay
.PHONY: replay-golden
replay-golden:
	cd cmd/polca-replay/testdata && $(GO) run gen.go
	git diff --exit-code cmd/polca-replay/testdata
	$(GO) test -run 'TestGolden|TestSelfMode' ./cmd/polca-replay
	$(GO) run ./cmd/polca-replay -self -no-provenance cmd/polca-replay/testdata/decisions.jsonl

# cover writes a coverage profile across all packages and prints the
# per-function tail plus the total.
.PHONY: cover
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 20
