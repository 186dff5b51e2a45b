# Standard developer entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench bench-json bench-compare ci flit-golden flow-trace cover repro repro-full clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the end-to-end tests that shell out to `go run` and the soak
# test; useful on slow machines.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark records: the paper-artifact sweeps once
# each plus the hot-path micro-benchmarks, parsed into BENCH_flow.json
# and BENCH_flit.json (see cmd/benchjson). Every bench invocation
# carries an explicit -timeout: the sweeps are minutes-to-hours on slow
# machines (the go test default of 10m used to kill everything but the
# first line), the micro suites get a generous hour.
#
# rotate-record parses $(2) into BENCH_$(1).json via a temp file; only
# once benchjson succeeds is the previous record rotated to *.prev.json
# and the temp moved into place, so a failed parse (bad bench output,
# interrupted run) cannot destroy the baseline `make bench-compare`
# diffs against.
define rotate-record
$(GO) run ./cmd/benchjson -in $(2) -out BENCH_$(1).json.tmp
@if [ -f BENCH_$(1).json ]; then cp BENCH_$(1).json BENCH_$(1).prev.json; fi
mv BENCH_$(1).json.tmp BENCH_$(1).json
endef

bench-json:
	$(GO) test -run xxx -bench 'Fig4|Table1|FailureSweep|MegaFabricSweep' -benchmem -benchtime 1x -timeout 60m . | tee bench_output.txt
	$(GO) test -run xxx -bench 'FlowEvaluator|LoadsCompiled|CompileRouting|CompileRepaired|DeltaRepair|PathSelection|PathLinks|OptimalLoad|MultiKLoads|BlockCompiledLoads' \
		-benchmem -timeout 60m . | tee -a bench_output.txt
	$(call rotate-record,flow,bench_output.txt)
	$(GO) test -run xxx -bench 'Fig5|AdaptiveK' -benchmem -benchtime 1x -timeout 60m . | tee bench_flit_output.txt
	$(GO) test -run xxx -bench 'FlitEngine' -benchmem -timeout 60m . | tee -a bench_flit_output.txt
	$(call rotate-record,flit,bench_flit_output.txt)
	$(GO) test -run xxx -bench 'ServeSingle|ServeBatch|ServeOpen' -benchmem -timeout 60m ./internal/loadgen | tee bench_serve_output.txt
	$(call rotate-record,serve,bench_serve_output.txt)
	@echo wrote BENCH_flow.json BENCH_flit.json BENCH_serve.json

# Diff the two newest benchmark records of each suite (the current
# BENCH_*.json against the *.prev.json rotated by bench-json), failing
# on any >10% ns/op regression. Override the records or the threshold:
#   make bench-compare OLD=a.json NEW=b.json BENCH_THRESHOLD=0.05
# A before/after counts only when both records ran interleaved in one
# session on one host: records taken at different times differ by the
# host's state (load, CPU steal, frequency) as much as by the code, and
# the diff then reports the host.
BENCH_THRESHOLD ?= 0.10
bench-compare:
ifdef OLD
	$(GO) run ./cmd/benchjson -compare -old $(OLD) -new $(NEW) -threshold $(BENCH_THRESHOLD)
else
	@for f in flow flit serve; do \
		if [ -f BENCH_$$f.prev.json ]; then \
			$(GO) run ./cmd/benchjson -compare -old BENCH_$$f.prev.json -new BENCH_$$f.json -threshold $(BENCH_THRESHOLD) || exit 1; \
		else \
			echo "bench-compare: no BENCH_$$f.prev.json yet (run make bench-json twice)"; \
		fi; \
	done
endif

# What a CI gate should run: static checks (vet, and gofmt -l listing
# nothing), the race-instrumented
# short test suite (includes the shared compiled-table race test),
# targeted race coverage of the repair and watchdog paths and of
# MultiKExperiment's evaluator pool shared across seeds, the
# allocation pins guarding the metrics and evaluation hot paths, the
# multi-K correctness gates (selector prefix nesting, the selectors'
# bitwise match with their reference loops, the multi-K
# vs per-K differentials, the vector sampler's scalar equivalence),
# the race-instrumented control-plane suite (journal replay, churn
# soak, degradation ladder), ten seconds of fuzzing the binary batch
# frame decoder from its checked-in corpus, the race-enabled in-process servebench
# smoke (closed/open-loop load harness against a live server), plus
# the kill -9 crash-recovery run of the real xgftserve binary, and a
# quick-scale smoke run that must produce a manifest.json with the
# required keys. The Alloc line also covers the table-free block path
# (derived AccumulateSegments and core.RowDeriver allocate nothing in
# steady state). The tail runs the mega smoke twice against one segment
# cache — its random-K column is the one that builds tables, so the
# warm run must record cache hits, and the closed-form columns must
# report derived rows — then vets and short-tests the benchmark module,
# which tier-1 `go test ./...` does not reach, and ends with
# flit-golden and flow-trace. Smoke output goes to a temporary directory
# that is removed on exit.
ci: vet
	@test -z "$$(gofmt -l .)" || { echo "ci: gofmt -l lists unformatted files:"; gofmt -l .; exit 1; }
	$(GO) test -short -race ./...
	$(GO) test -race -run 'Repair|Wedge|Drain|Degraded|Failure|MultiKExperiment' ./internal/core ./internal/flit ./internal/flow ./internal/lid
	$(GO) test -race -count=1 ./internal/serve/...
	$(GO) test -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 10s ./internal/serve
	$(GO) test -race -count=1 -run 'TestServeBenchSmoke' ./internal/loadgen
	$(GO) test -count=1 -run 'TestKillDashNineRecovery' ./cmd/xgftserve
	$(GO) test -run 'Alloc' -count=1 ./internal/obs ./internal/core ./internal/flit ./internal/flow ./internal/serve ./internal/stats
	$(GO) test -race -count=1 -run 'AdaptiveK' ./internal/flit ./internal/experiments
	$(GO) test -run 'PrefixNesting|SelectorBitwise|MultiK|SampleAdaptiveVec' -count=1 ./internal/core ./internal/flow ./internal/stats
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/xgftpaper -exp failures -scale quick -out $$tmp/smoke; \
	for key in tool go_version flags seed workers experiments wall_seconds metrics exit_status; do \
		grep -q "\"$$key\"" $$tmp/smoke/manifest.json || { echo "ci: manifest.json missing \"$$key\""; exit 1; }; \
	done; \
	echo ci: manifest.json ok; \
	$(GO) run -race ./cmd/xgftpaper -exp mega -scale quick -table-cache $$tmp/mega-cache -out $$tmp/mega; \
	$(GO) run ./cmd/xgftpaper -exp mega -scale quick -table-cache $$tmp/mega-cache -out $$tmp/mega; \
	grep -Eq '"core.segments_cache_hit": [1-9]' $$tmp/mega/manifest.json \
		|| { echo "ci: warm mega run recorded zero segment cache hits"; exit 1; }; \
	grep -Eq '"flow.block_rows_derived": [1-9]' $$tmp/mega/manifest.json \
		|| { echo "ci: mega run derived zero rows: closed-form schemes built tables"; exit 1; }; \
	echo ci: mega segment cache and table-free path ok
	$(GO) -C benchmark vet ./... && $(GO) -C benchmark test -short ./...
	$(MAKE) flit-golden
	$(MAKE) flow-trace

# One full-scale round of the flit-paper benchmark workload at its
# recorded seed (~12 s of simulation after the build). It exits non-zero
# on any failed check, including "simulated statistics == golden"
# against benchmark/golden/flit-paper.json, which the smoke-scale
# benchmark tests never reach.
flit-golden:
	bash benchmark/run.sh --workload flit-paper --seed 2012 --seconds 1

# One traced round of the flow-paper benchmark workload at its recorded
# seed (~7 s). It exits non-zero on any failed check, including
# "traced fig4 table == untraced": the benchmark's hand-spelled replay
# of Figure 4 over the layers' public functions must equal
# experiments.Fig4Ks bit for bit, which the smoke-scale benchmark tests
# do not check at the workload's scale.
flow-trace:
	bash benchmark/run.sh --workload flow-paper --seed 2012 --seconds 1 --trace 1

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -20

# Regenerate every paper artifact quickly (sanity) or at the recorded
# protocol scale.
repro:
	$(GO) run ./cmd/xgftpaper -exp all -scale quick -out results-quick

repro-full:
	$(GO) run ./cmd/xgftpaper -exp all -scale paper -out results

clean:
	rm -f cover.out test_output.txt bench_output.txt bench_flit_output.txt bench_serve_output.txt
	rm -f BENCH_flow.json.tmp BENCH_flit.json.tmp BENCH_serve.json.tmp
