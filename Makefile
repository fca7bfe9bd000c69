# Targets mirror the CI jobs (.github/workflows/ci.yml); keep them in sync.

GO      ?= go
BIN     ?= bin
VETTOOL := $(BIN)/mdrep-lint

.PHONY: all build test race chaos walk obs flight sim shard e2e lint lint-allow lint-fix vet fmt bench bench-json bench-gate clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint builds the repo's own go/analysis suite (cmd/mdrep-lint) and runs
# it through the go vet vettool protocol, then standard vet and gofmt.
lint: $(VETTOOL) vet fmt
	$(GO) vet -vettool=$(VETTOOL) ./...

$(VETTOOL): FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(VETTOOL) ./cmd/mdrep-lint

# lint-allow inventories every //mdrep:allow suppression in the tree
# (outside vendor/ and the analyzer fixtures, which exist to exercise
# the directive). A directive inside a string literal — an odd number of
# quotes before it on the line, as in the directive parser's test
# inputs — is not a suppression and is skipped. Review the list in
# perf/correctness PRs: each line is a standing exception and must carry
# a reason after the colon. It is an inventory, not a gate.
lint-allow:
	@list="$$(grep -rn '//mdrep:allow [a-z]*: ' --include='*.go' . \
		| grep -v '^./vendor/' | grep -v '/testdata/' \
		| grep -vE ':[0-9]+:[[:space:]]*//[[:space:]]' \
		| awk '{ pre = substr($$0, 1, index($$0, "//mdrep:allow") - 1); \
			sub(/^[^:]*:[0-9]+:/, "", pre); if (gsub(/["`]/, "", pre) % 2 == 0) print }' \
		| sed 's|^\./||')"; \
	if [ -n "$$list" ]; then printf '%s\n' "$$list"; fi; \
	echo "lint-allow: $$(printf '%s' "$$list" | grep -c .) suppression(s) outside fixtures"

# lint-fix applies the suite's suggested fixes (currently: faultwrap's
# fault.Terminal wrapping) in place. The vettool protocol has no -fix
# mode, so diagnostics are exported as JSON and replayed through the
# mdrep-lint -applyfix editor. Rerun make lint afterwards; some fixes
# (e.g. adding the fault import) may need a follow-up gofmt/goimports.
lint-fix: $(VETTOOL)
	$(GO) vet -vettool=$(VETTOOL) -json ./... | $(VETTOOL) -applyfix

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:" >&2; echo "$$out" >&2; exit 1; fi

# chaos runs the fault-schedule resilience suite under the race detector
# twice over (shaking out ordering flakes) and enforces the coverage gate
# on the DHT, its TCP transport (internal/rpc) and the chaos packages.
# The walk package rides along for its 50-schedule DHTSource fault suite.
chaos:
	$(GO) test -race -count=2 \
		-coverprofile=chaos.cover -coverpkg=mdrep/internal/dht,mdrep/internal/rpc,mdrep/internal/chaos,mdrep/internal/walk \
		mdrep/internal/chaos mdrep/internal/dht mdrep/internal/rpc mdrep/internal/walk
	@total="$$($(GO) tool cover -func=chaos.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "combined coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 80.0) ? 0 : 1 }' || { \
		echo "coverage $$total% is below the 80% gate" >&2; exit 1; }

# obs runs the observability layer under the race detector — the metrics
# registry (including its nil-handle no-ops), the unified obs.Span, and
# every instrumented package's obs tests — then the benchmark guard:
# counter Inc, histogram Observe and both span shapes (histogram-only,
# and causal+histogram under live tracing, each ended via defer) must
# stay 0 B/op on the hot path. A span carries flight.MaxAttrs attrs, so
# a heap escape on e.g. the journal-append path fails here (the
# TestHotPathZeroAlloc and TestSpanZeroAlloc tests enforce allocs == 0;
# the benchmarks surface the actual ns/op and B/op).
obs:
	$(GO) test -race -run 'Obs|Observer|Instrument|Metrics|Histogram|Registry|Span|Handles|Serve|Exchange|Exported' \
		mdrep/internal/metrics mdrep/internal/obs mdrep/internal/sparse \
		mdrep/internal/core mdrep/internal/journal mdrep/internal/dht \
		mdrep/internal/rpc mdrep/internal/walk mdrep/internal/massim \
		mdrep/internal/peer mdrep/internal/chaos mdrep/cmd/mdrep-peer
	$(GO) test -run '^$$' -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkSpan' \
		-benchmem mdrep/internal/metrics mdrep/internal/obs | tee /dev/stderr | \
		awk '/^Benchmark/ { if ($$(NF-3) != 0) { \
			print "FAIL: " $$1 " allocates " $$(NF-3) " B/op on the hot path" > "/dev/stderr"; exit 1 } }'

# flight runs the causal-tracing and flight-recorder suites, with the
# wire codec and the rpc transport that carry the trace header, under
# the race detector twice over, then enforces the recorder's steady-state
# allocation budget: the ring's Record hot path must stay at 0 B/op or
# an always-on recorder would tax every traced RPC.
flight:
	$(GO) test -race -count=2 mdrep/internal/flight \
		mdrep/internal/obs mdrep/internal/wire mdrep/internal/rpc
	$(GO) test -race -count=2 -run 'Flight|Trace|Dump|Healthz' \
		mdrep/internal/dht mdrep/internal/chaos mdrep/cmd/mdrep-peer
	$(GO) test -run '^$$' -bench 'BenchmarkRingRecord' \
		-benchmem mdrep/internal/flight | tee /dev/stderr | \
		awk '/^Benchmark/ { if ($$(NF-3) != 0) { \
			print "FAIL: " $$1 " allocates " $$(NF-3) " B/op on the recorder hot path" > "/dev/stderr"; exit 1 } }'

# sim runs the massim adversarial scenario suite under the race
# detector twice over, then asserts the determinism contract the hard
# way: two CLI runs of every scenario at n=10k must be byte-identical.
sim:
	$(GO) test -race -count=2 mdrep/internal/massim
	$(GO) build -o $(BIN)/mdrep-sim ./cmd/mdrep-sim
	$(BIN)/mdrep-sim -exp massim -scenario all -n 10000 -seed 7 > $(BIN)/massim.a.txt
	$(BIN)/mdrep-sim -exp massim -scenario all -n 10000 -seed 7 > $(BIN)/massim.b.txt
	cmp $(BIN)/massim.a.txt $(BIN)/massim.b.txt
	@echo "massim: scenario suite passed, reruns byte-identical"

# shard runs the sharded-engine invariance suite under the race
# detector twice over: shard-count invariance (K ∈ {1,2,8} must be
# bit-identical to the unsharded engine), every incremental sharded TM
# against the map reference build, the concurrent hammer at K=1 and K=8,
# per-shard journal recovery including truncation at every byte offset,
# the shard-count parity tests at the mdrep and massim layers, and the
# sparse row-set layer under them: the patch-only re-freeze and TM patch
# differentials and the K-way merge.
shard:
	$(GO) test -race -count=2 -run 'Shard|WithShards|MirrorShards|Refreeze|PatchWeightedSum|Merge|RowSet' \
		mdrep mdrep/internal/core mdrep/internal/journal mdrep/internal/sparse \
		mdrep/internal/massim mdrep/cmd/mdrep-peer

# walk runs the Monte-Carlo reputation estimator suite under the race
# detector twice over: the cross-validation property tests against the
# exact RowVecPow kernel (including the E11 mean-error ≤ 0.05 bound at
# 16k walks on n=2000 graphs), the byte-reproducibility contract across
# GOMAXPROCS values, and the 50-schedule DHTSource chaos suite.
walk:
	$(GO) test -race -count=2 mdrep/internal/walk

# e2e vets and self-tests the end-to-end benchmark module. e2ebench/ is
# its own module (replace mdrep => ../), so `go build ./...` at the root
# never compiles it: an API it calls can vanish without any other target
# noticing. The env is e2ebench/run.sh's offline one.
E2E_ENV := GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local

e2e:
	cd e2ebench && $(E2E_ENV) $(GO) vet ./... && $(E2E_ENV) $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json snapshots the canonical benchmark suite as a dated JSON
# trajectory file (BENCH_<date>.json) via the cmd/mdrep-bench parser.
# Committing the file each perf PR turns performance claims into diffs.
# Each benchmark runs BENCH_COUNT times (shortened via BENCH_TIME so the
# suite stays fast) and the parser keeps the fastest run (min ns/op):
# scheduler interference on shared/single-core hosts only ever slows a
# run down, so min-of-N damps the noise a single long run cannot.
# Five repeats, not three: fsync-bound and sub-microsecond benchmarks
# still flapped past the 15% gate run-to-run at min-of-3 on 1-CPU hosts.
BENCH_LIST := BenchmarkTrustMatrixFullBuild|BenchmarkReputationQuery|BenchmarkFileJudgement|BenchmarkSparseMatMul|BenchmarkRMPowParallel|BenchmarkBuildTMIncremental|BenchmarkJournalAppend|BenchmarkRecovery|BenchmarkSystemIngest|BenchmarkSystemJudge|BenchmarkDHTLookup|BenchmarkMassimStep|BenchmarkMassimEpoch|BenchmarkShardedApplyBatch|BenchmarkShardedRebuild|BenchmarkWalkEstimate
BENCH_COUNT := 5
BENCH_TIME  := 0.5s

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_LIST)' -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) \
		-benchmem mdrep mdrep/internal/massim mdrep/internal/walk \
		| $(GO) run ./cmd/mdrep-bench > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# bench-gate is the perf regression gate: rerun the canonical suite and
# fail if any benchmark's ns/op regressed more than 15% against the most
# recent committed BENCH_*.json snapshot (cmd/mdrep-bench -gate).
bench-gate:
	@base="$$(ls BENCH_*.json 2>/dev/null | sort | tail -1)"; \
	if [ -z "$$base" ]; then echo "bench-gate: no BENCH_*.json baseline committed" >&2; exit 1; fi; \
	echo "bench-gate: baseline $$base"; \
	$(GO) test -run '^$$' -bench '$(BENCH_LIST)' -count=$(BENCH_COUNT) -benchtime=$(BENCH_TIME) \
		-benchmem mdrep mdrep/internal/massim mdrep/internal/walk \
		| $(GO) run ./cmd/mdrep-bench -gate "$$base"

clean:
	rm -rf $(BIN)

FORCE:
