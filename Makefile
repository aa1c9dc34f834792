# markovseq — reproduction of Kimelfeld & Ré, "Transducing Markov
# Sequences" (PODS 2010). Standard library only; Go ≥ 1.22.

GO ?= go

.PHONY: all build test race cover bench benchcmp bench-all bench-profile experiments examples fuzz fuzz-smoke slo slo-smoke verify clean

all: build test

# laharbench/ is its own module, which the root ./... skips: build, test
# and race vet and test it as well, so a change to a name the benchmark
# calls fails here rather than only when the benchmark runs.
LAHARBENCH = cd laharbench && $(GO) vet ./... && $(GO) test

# gofmt -l lists every file, laharbench/ included, whose formatting
# differs from gofmt's; build fails when it lists any. It only reads.
GOFMT ?= gofmt
FMTCHECK = @out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(FMTCHECK)
	$(GO) build ./...
	$(GO) vet ./...
	$(LAHARBENCH) ./...

test:
	$(GO) test ./...
	$(LAHARBENCH) ./...

# The race target is the serving-layer gate: vet plus the full suite
# under the race detector (the lahar cache tests exercise concurrent
# TopK/TopKAcross/PutStream).
race:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(LAHARBENCH) -race ./...

cover:
	$(GO) test -cover ./...

# Sparse-vs-dense kernel benchmarks plus the serving-layer suite, with
# allocation counts, summarized into BENCH_conf.json (raw benchstat-
# compatible lines are preserved inside the JSON), followed by the
# ranked-enumeration delay suite (top-k, TTFA, per-answer delay
# percentiles; reference vs incremental; the append-then-rank pair with
# the live heap it retains) into BENCH_ranked.json, and the cold sliding-window / fleet sweep (windows
# per second and streams per second land in each result's "extra" map)
# into BENCH_sliding.json (with BenchmarkSlidingTopKSparse, the
# sweep over a stream whose windows are half answerless), and the
# append-only ingestion pair (incremental AppendEvents + resident
# watcher vs wholesale PutStream-rebuild; events per second in "extra")
# into BENCH_append.json. Sliding, ranked and append each have a
# committed BENCH_<p>.base.json that `make verify` gates against. Each
# file's config records how it was made (cmd/benchjson -meta): the
# commit, marked -dirty when the tree has uncommitted changes, and the
# GOMAXPROCS the benchmarks ran with.
BENCHMETA = -meta commit=$$(git describe --always --dirty 2>/dev/null || echo unknown) -meta gomaxprocs=$${GOMAXPROCS:-$$(nproc)}
bench:
	$(GO) test -run '^$$' -bench 'Kernel|Lahar' -benchmem ./... | $(GO) run ./cmd/benchjson -o BENCH_conf.json $(BENCHMETA)
	$(GO) test -run '^$$' -bench 'Ranked' -benchmem ./internal/ranked/ | $(GO) run ./cmd/benchjson -o BENCH_ranked.json $(BENCHMETA)
	$(GO) test -run '^$$' -bench 'SlidingTopK|TopKAcross' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_sliding.json $(BENCHMETA)
	$(GO) test -run '^$$' -bench 'Append' -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_append.json $(BENCHMETA)

# Diff two bench JSON files produced by `make bench`, failing on a >10%
# ns/op (or >15% Extra-metric) regression in the named hot benchmarks.
# Extra metrics gate by name: rates must not fall, times, burn rates and
# retained memory ("…-MB", such as BenchmarkRankedAppendIncremental's
# live-MB) must not rise:
#
#   make benchcmp OLD=BENCH_sliding.base.json NEW=BENCH_sliding.json
#   make benchcmp OLD=BENCH_ranked.base.json NEW=BENCH_ranked.json MATCH=Ranked
#   make benchcmp OLD=BENCH_append.base.json NEW=BENCH_append.json MATCH=AppendEvents
OLD ?= BENCH_sliding.base.json
NEW ?= BENCH_sliding.json
MATCH ?= SlidingTopK|TopKAcross
benchcmp:
	$(GO) run ./cmd/benchcmp -old $(OLD) -new $(NEW) -threshold 10 -match '$(MATCH)'

# The end-to-end SLO harness (internal/slo, cmd/sloharness): open-loop
# load with fault injection against a live lahar store, gated on each
# scenario's error budget — exits non-zero when a budget burns. The full
# table drives ~2s per scenario; slo-smoke is the seconds-scale CI
# subset (sub-second runs, throughput floors un-gated). BENCH_slo.json
# uses the benchjson schema, so it flows through `make benchcmp`
# (MATCH=SLO) like any benchmark suite. See EXPERIMENTS.md "SLO
# methodology" for the open-loop rationale and 1-CPU caveats.
slo:
	$(GO) run ./cmd/sloharness -o BENCH_slo.json

slo-smoke:
	$(GO) run ./cmd/sloharness -smoke -o BENCH_slo.json

# The CI gate: the build checks (gofmt, vet), the full race suite, a
# fuzz smoke pass, the SLO smoke
# gate (skippable with SKIP_SLO=1 on machines too noisy to trust
# latency budgets), and a benchmark-regression check for every pair
# with a committed baseline: sliding, ranked, append (AppendEvents
# only — AppendRebuild runs too few iterations to gate) and slo.
# Baselines are opt-in (rename a BENCH_<p>.json from a trusted run to
# BENCH_<p>.base.json) so a fresh checkout still verifies cleanly — but
# once a baseline exists the check is REQUIRED: a missing regenerated
# BENCH_<p>.json fails verify instead of silently skipping. Escape
# hatch for machines where running benchmarks is impractical (CI
# shards, qemu): SKIP_BENCHCMP=1 make verify.
verify: build race fuzz-smoke
	@if [ "$(SKIP_SLO)" = "1" ]; then \
		echo "verify: SKIP_SLO=1; skipping the SLO smoke gate"; \
	else \
		$(MAKE) slo-smoke || exit 1; \
	fi
	@for p in sliding ranked append slo; do \
		base=BENCH_$$p.base.json; new=BENCH_$$p.json; \
		case $$p in \
			sliding) match='SlidingTopK|TopKAcross';; \
			ranked)  match='Ranked';; \
			append)  match='AppendEvents';; \
			slo)     match='SLO';; \
		esac; \
		if [ ! -f $$base ]; then \
			echo "verify: no benchmark baseline ($$base); skipping benchcmp"; \
		elif [ "$(SKIP_BENCHCMP)" = "1" ]; then \
			echo "verify: SKIP_BENCHCMP=1; skipping benchcmp against $$base"; \
		elif [ ! -f $$new ]; then \
			echo "verify: $$base exists but $$new is missing; run 'make bench' first (or SKIP_BENCHCMP=1 to bypass)" >&2; \
			exit 1; \
		else \
			$(MAKE) benchcmp OLD=$$base NEW=$$new MATCH="$$match" || exit 1; \
		fi; \
	done

# CPU/heap profiles for the hot benchmark named in PROFILE_BENCH (one
# iteration count high enough for a stable profile), dropped under
# prof/ together with a pprof top-20 summary of each. This is the loop
# that drove the PR 8 checkpoint work: profile, read the top entries,
# attack the widest box, re-measure.
#
#   make bench-profile
#   make bench-profile PROFILE_BENCH=RankedExhaustive PROFILE_PKG=./internal/ranked/
PROFILE_BENCH ?= RankedPruned$$
PROFILE_PKG ?= ./internal/ranked/
bench-profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchmem \
		-cpuprofile prof/cpu.out -memprofile prof/mem.out \
		-o prof/bench.test $(PROFILE_PKG)
	$(GO) tool pprof -top -nodecount 20 prof/bench.test prof/cpu.out
	$(GO) tool pprof -top -nodecount 20 -sample_index=alloc_space prof/bench.test prof/mem.out

# The historical run-everything benchmark sweep (DESIGN.md §3 series).
bench-all:
	$(GO) test -bench . -benchmem ./...

# Regenerate every table and figure of the paper (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/msqexp

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hospital
	$(GO) run ./examples/textextract
	$(GO) run ./examples/speech
	$(GO) run ./examples/genome
	$(GO) run ./examples/monitoring

fuzz:
	$(GO) test ./internal/regex -fuzz FuzzCompile -fuzztime 30s
	$(GO) test ./internal/codec -fuzz FuzzDecodeSequence -fuzztime 30s
	$(GO) test ./internal/codec -fuzz FuzzDecodeTransducer -fuzztime 30s
	$(GO) test ./internal/conf -fuzz FuzzSequenceValidate -fuzztime 30s
	$(GO) test ./internal/slo -fuzz FuzzSLOScenarioConfig -fuzztime 30s
	$(GO) test ./internal/lahar -fuzz FuzzSlidingWindows -fuzztime 30s
	$(GO) test ./internal/lahar -fuzz FuzzAppendTopK -fuzztime 30s
	$(GO) test ./internal/ranked -fuzz FuzzPrunedMatchesExhaustive -fuzztime 30s

# Quick per-target fuzz pass (a few seconds each; -run '^$$' skips the
# unit tests so each invocation is pure fuzzing) — cheap enough for CI.
fuzz-smoke:
	$(GO) test ./internal/regex -run '^$$' -fuzz FuzzCompile -fuzztime 3s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDecodeSequence -fuzztime 3s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDecodeTransducer -fuzztime 3s
	$(GO) test ./internal/conf -run '^$$' -fuzz FuzzSequenceValidate -fuzztime 3s
	$(GO) test ./internal/slo -run '^$$' -fuzz FuzzSLOScenarioConfig -fuzztime 3s
	$(GO) test ./internal/lahar -run '^$$' -fuzz FuzzSlidingWindows -fuzztime 3s
	$(GO) test ./internal/lahar -run '^$$' -fuzz FuzzAppendTopK -fuzztime 3s
	$(GO) test ./internal/ranked -run '^$$' -fuzz FuzzPrunedMatchesExhaustive -fuzztime 3s

clean:
	$(GO) clean ./...
