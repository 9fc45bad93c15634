# Development targets.
#
#   make test           tier-1 gate: build everything, run every test
#                       (internal/vet's reachability test among them: every
#                       internal/ function reached from cmd/ or bench/, or
#                       keep-listed with a reason)
#   make vet            go vet (on the host and as GOARCH=arm64, so the
#                       Go fallback of every amd64 assembly kernel keeps
#                       compiling), plus gofmt -l over the root module
#   make check          static analysis + race detector over the concurrent
#                       packages (pool, la, compress, paramserver, storage,
#                       ooc, opt, core, metrics, dml, experiments, factorized,
#                       modeldb, serve) and the spill fault sweeps
#                       (integration)
#   make vet-engine     dmmlvet: the engine-specific analyzer suite (scratch
#                       pairing, span pairing, instrument registration,
#                       noalloc kernels, lock discipline) over every package;
#                       any finding fails the build
#   make test-cpu       the packages whose reductions promise the same bits at
#                       every core count (pool, la, opt, factorized,
#                       compress, ooc, core, dml), tested at GOMAXPROCS 1, 2
#                       and 4
#   make ci             exactly what .github/workflows/ci.yml runs, in order —
#                       keep the two in lockstep so CI and local verification
#                       cannot drift
#   make bench-module   vet + test the benchmark's own Go module (bench/),
#                       which the root ./... patterns never load — catches a
#                       PR that deletes engine API the benchmark compiles
#                       against
#   make fuzz-smoke     15s native-fuzzing passes over the DML fusion
#                       property (fused vs unfused), the DML parser
#                       (parse/print round trip), the serving wire
#                       protocol (decode/round-trip), the factorized Gram,
#                       the compressed page decoder, the numeric CSV
#                       scanner, the logistic loss tile (vector and Go
#                       paths vs the scalar pair), the dense GEMV, GEVM
#                       and Gram tiles (vector vs Go loops), the sigmoid
#                       tile (vector and Go paths vs the scalar Sigmoid)
#                       and the hash join (vs a nested-loop join)
#   make serve-smoke    end-to-end inference-serving smoke: in-process
#                       dmmlserve + loadtest closed loop, fails on any request
#                       error or any score that differs from la.ScoreRow
#   make bench          benchstat-compatible timings for the perf-tracked
#                       experiments (E4, E5, E6, E10, E15, E17, E18, and the
#                       E14 fault-injection scenario), opt's batched loss
#                       pass (BenchmarkLossPass*), the buffer pool's spill
#                       read (BenchmarkSpillRead), the out-of-core block
#                       step, three passes vs one, over single-column and
#                       co-coded groups (BenchmarkBlockStep) — the last two
#                       because dmmlperf's traced train_ooc run keeps the
#                       three-pass step — and the compression planner's cost
#                       per out-of-core block, without and with co-coding
#                       (BenchmarkCompressBlock) — a local tool with no pins
#                       and no gate: run before and after a kernel change and
#                       feed both logs to benchstat (the regression gate is
#                       the benchmark in bench/, declared by BENCHMARK.json)
#   make cover          the CI coverage job: per-package statement coverage over
#                       ./internal/... with an HTML report (coverage.html) and
#                       hard floors on the storage, compress, factorized, dml
#                       and opt packages
#   make fuzz-nightly   the nightly extended fuzzing pass: 5 minutes per fuzz
#                       target instead of fuzz-smoke's 15 seconds
#   make lint-examples  run the DML static analyzer over all shipped scripts

# Fail fast: every recipe line runs under `bash -eu -o pipefail`, so a
# failing command in a multi-line recipe (or mid-pipeline) stops the build
# instead of letting later lines mask its exit code.
SHELL := /bin/bash
.SHELLFLAGS := -eu -o pipefail -c

GO ?= go
BENCH_COUNT ?= 6

# Packages with real concurrency — the ones worth the race detector's 10x
# slowdown. metrics is lock-striped and must stay race-clean; ooc runs the
# async block prefetcher against the buffer pool; dml drives the parallel
# fused templates, and experiments, factorized and core (whose plans run
# the factorized and dense kernels under gradient descent) fan work out
# through the pool; modeldb is read concurrently by the serving path while
# trainers log into it; integration's spill read and write fault sweeps
# fail the pool under the prefetcher and the builders.
RACE_PKGS := ./internal/pool/... ./internal/la/... ./internal/compress/... \
	./internal/paramserver/... ./internal/storage/... ./internal/ooc/... \
	./internal/opt/... ./internal/core/... \
	./internal/metrics/... ./internal/dml/... ./internal/experiments/... \
	./internal/factorized/... ./internal/modeldb/... \
	./internal/serve/... ./internal/integration/...

.PHONY: test test-cpu check ci vet vet-engine race bench cover fuzz-nightly \
	lint-examples fuzz-smoke serve-smoke bench-module

test:
	$(GO) build ./...
	$(GO) test ./...

# The reductions under these packages sum a fixed grid in index order, so
# their tests must pass — and their bit-equality checks hold — at any core
# count, not only the host's. dml is here for its fused templates: the Row
# template's plan is pinned bit-equal to the unfused one. ooc is here for
# its golden: streaming SGD over paged compressed blocks, whose kernels fan
# out over row ranges and column groups.
CPU_PKGS := ./internal/pool/... ./internal/la/... ./internal/opt/... \
	./internal/factorized/... ./internal/compress/... ./internal/ooc/... \
	./internal/core/... ./internal/dml/...

test-cpu:
	$(GO) test -count=1 -cpu 1,2,4 $(CPU_PKGS)

check: vet vet-engine race

# Mirror of the blocking CI jobs (build-test, test-cpu, bench-module, vet,
# vet-engine, race, fuzz-smoke, serve-smoke, lint-examples).
ci: test test-cpu bench-module vet vet-engine race fuzz-smoke serve-smoke lint-examples

# bench/ is its own module (replace dmml => ../), so `go build ./...` and
# `go test ./...` at the root never compile it.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# go vet, then go vet as GOARCH=arm64 — off amd64 the assembly kernels'
# Go fallbacks compile instead, and this keeps them compiling (on amd64,
# vet's asmdecl check holds the .s files to their Go declarations) — then
# gofmt over the root module's Go files (bench/ is its own module and is left
# alone): any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -path ./bench -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# The engine-specific static-analysis suite (cmd/dmmlvet): proves the
# resource invariants — scratch-buffer pairing, span/stopwatch pairing,
# instrument registration discipline, //dmml:noalloc kernels, lock
# discipline — at compile time. Exits non-zero on any finding.
vet-engine:
	$(GO) run ./cmd/dmmlvet ./...

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkExperiments$$/^(E4|E5|E6|E10|E14|E15|E17|E18)$$' \
		-benchmem -count=$(BENCH_COUNT) .
	$(GO) test -run '^$$' -bench 'BenchmarkLossPass(Logistic|Squared)$$' \
		-benchmem -count=$(BENCH_COUNT) ./internal/opt
	$(GO) test -run '^$$' -bench 'BenchmarkSpillRead$$' \
		-benchmem -count=$(BENCH_COUNT) ./internal/storage
	$(GO) test -run '^$$' -bench 'Benchmark(BlockStep|CompressBlock)$$' \
		-benchmem -count=$(BENCH_COUNT) ./internal/compress

# Short native-fuzzing smoke over the fusion equivalence property (random
# expression trees, fused evaluation must match unfused bit-for-bit on cell
# templates and to relative 1e-8 on reassociated reductions), the DML
# parser's print/parse round trip, the decoders below, the logistic loss
# tile against the scalar pair, the dense tiles against their Go loops, the
# sigmoid tile against the scalar Sigmoid, and the hash join against a
# nested-loop join.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzFusionSemantics$$' -fuzztime 15s ./internal/dml
	$(GO) test -run '^$$' -fuzz 'FuzzDMLParse$$' -fuzztime 15s ./internal/dml
	$(GO) test -run '^$$' -fuzz 'FuzzServeProtocol$$' -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzFactorizedGram$$' -fuzztime 15s ./internal/factorized
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePage$$' -fuzztime 15s ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzScanMatrixCSV$$' -fuzztime 15s ./internal/storage
	$(GO) test -run '^$$' -fuzz 'FuzzLogisticLossInto$$' -fuzztime 15s ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzDenseTiles$$' -fuzztime 15s ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzSigmoidTile$$' -fuzztime 15s ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzHashJoin$$' -fuzztime 15s ./internal/relational

# End-to-end serving smoke: loadtest starts dmmlserve in-process with the
# demo models and drives a closed loop; fails on any request error or on any
# answer not bit-equal to la.ScoreRow over the model it logged.
serve-smoke:
	$(GO) run ./cmd/loadtest -selfserve -conns 8 -duration 2s

# Per-package statement coverage with an HTML report, plus hard floors on the
# packages that own the out-of-core datapath's correctness — the buffer pool
# (storage) and the page codec (compress) — on the join-tree pushdown
# engine (factorized), and on the two ends of the source contract: the
# solvers (opt) and the DML evaluator (dml). The floor check parses go test's
# own per-package coverage lines, so it cannot drift from the profile.
COVER_FLOOR_STORAGE ?= 85
COVER_FLOOR_COMPRESS ?= 82
COVER_FLOOR_FACTORIZED ?= 80
COVER_FLOOR_DML ?= 88
COVER_FLOOR_OPT ?= 87

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./internal/... | tee coverage.txt
	$(GO) tool cover -html=coverage.out -o coverage.html
	@check() { \
		pct=$$(awk -v pkg="dmml/internal/$$1" '$$2 == pkg { for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { sub(/%.*/, "", $$i); print $$i; exit } }' coverage.txt); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for internal/$$1" >&2; exit 1; fi; \
		if awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p < f) }'; then \
			echo "cover: internal/$$1 coverage $$pct% is below the $$2% floor" >&2; exit 1; \
		fi; \
		echo "cover: internal/$$1 $$pct% (floor $$2%)"; \
	}; \
	check storage $(COVER_FLOOR_STORAGE); \
	check compress $(COVER_FLOOR_COMPRESS); \
	check factorized $(COVER_FLOOR_FACTORIZED); \
	check dml $(COVER_FLOOR_DML); \
	check opt $(COVER_FLOOR_OPT)

# Nightly extended fuzzing: the same ten properties fuzz-smoke touches for
# 15s each get 5 minutes each.
FUZZ_NIGHTLY_TIME ?= 5m

fuzz-nightly:
	$(GO) test -run '^$$' -fuzz 'FuzzFusionSemantics$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/dml
	$(GO) test -run '^$$' -fuzz 'FuzzDMLParse$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/dml
	$(GO) test -run '^$$' -fuzz 'FuzzServeProtocol$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzFactorizedGram$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/factorized
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePage$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/compress
	$(GO) test -run '^$$' -fuzz 'FuzzScanMatrixCSV$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/storage
	$(GO) test -run '^$$' -fuzz 'FuzzLogisticLossInto$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzDenseTiles$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzSigmoidTile$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/la
	$(GO) test -run '^$$' -fuzz 'FuzzHashJoin$$' -fuzztime $(FUZZ_NIGHTLY_TIME) ./internal/relational

lint-examples:
	$(GO) run ./cmd/dmml lint -strict examples/dml_script/scripts/*.dml
