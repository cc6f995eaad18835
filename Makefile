# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench chaos fuzz vet lint check fmt cover replicate artifacts clean FORCE

all: build vet test

build:
	$(GO) build ./...

# perfbench is a Go module of its own, so ./... skips its self-checks.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/incr ./internal/api ./internal/cluster ./internal/fault ./internal/sim ./internal/spill
	cd perfbench && $(GO) test ./...

bench: BENCH_incr.json BENCH_fault.json BENCH_serve.json BENCH_batch.json
	$(GO) test -bench=. -benchmem ./...

# Perf certificate for the incremental evaluator + cached serving path
# (non-zero exit if the ≥10× n=4096 speedup-search threshold is missed).
BENCH_incr.json: FORCE
	$(GO) run ./cmd/benchincr > $@

# Perf certificate for the fault layer: the fault-aware integrator's
# empty-plan run must cost ≤2× plain RunCEP at n=1024; replanner timing is
# reported for scale. The elastic-churn robustness regime rides along:
# replicated-2@0.15 must out-salvage ride-vs-replan ≥1.2× aggregate useful
# work over ≥5 jitter seeds of the fixed heavy-churn plan, with fault-free
# duplication overhead ≤2×. checkbench re-derives the ratio from the raw
# useful-work sums and history-gates it like any thresholded regime.
BENCH_fault.json: FORCE
	$(GO) run ./cmd/benchfault > $@

# Perf certificate for the serving hot path: sharded singleflight cache,
# raw-query front layer, zero-alloc measure path, admission batcher,
# distributed cache tier. The mixed (thundering herd) regime must show ≥3×
# throughput over the single-lock baseline; many_clients (distinct-key herd)
# must certify ≥2× coalesced-over-uncoalesced benchstat-style (≥5 paired
# samples, 95% CI low end); fleet (4 peer replicas vs the same fleet with no
# tier) must certify ≥2× wall clock the same way AND ≤1.25 evaluations per
# distinct key fleet-wide, re-derived by checkbench from the raw eval
# counters. The sweep regime (repeated large streamed batch sweeps, working
# set past the memory budget) must certify ≥2× spill-on over spill-off wall
# clock benchstat-style with byte-identical responses, plus a bounded heap
# peak (≤0.5× the response) while serving a spill hit — both re-derived by
# checkbench from the raw per-sample fields. The restart regime (populate →
# CloseSpill → reopen the same spill dir under an empty memory tier) must
# certify ≥90% of previously served keys answered without re-evaluation and
# byte-identically, re-derived by checkbench from the raw per-sample
# re-evaluation counters. checkbench also holds thresholded regimes to ≥70%
# of the committed bench_history/ speedups.
BENCH_serve.json: FORCE
	$(GO) run ./cmd/benchserve > $@

# Perf certificate for the memory-aware batch engine: dedupe, raw body-front
# cache, size-adaptive kernels. Gated benchstat-style (≥5 paired samples,
# 95% CI low end vs threshold); few_large must certify ≥3× over the PR 3
# across-profile-only baseline.
BENCH_batch.json: FORCE
	$(GO) run ./cmd/benchbatch > $@

FORCE:

# The lint step also holds the RNG's hot draws inlinable: every Monte-Carlo
# loop in the reproduction pays a call per draw if they stop inlining. And it
# keeps unlinks off the spill store's callers: internal/spill may reach
# os.Remove only through the reaper's removeFile hook and in recover (Open's
# recovery, before the store serves), so an unlink that returns under the
# store lock or on a request path fails the build.
lint:
	$(GO) vet ./...
	gofmt -l cmd internal examples perfbench bench_test.go | tee /dev/stderr | wc -l | grep -q '^0$$'
	@inl=$$($(GO) build -gcflags=-m ./internal/stats 2>&1); \
	for fn in Uint64 Float64; do \
		echo "$$inl" | grep -qE "can inline \(\*RNG\)\.$$fn\$$" || { \
			echo "make lint: (*RNG).$$fn no longer inlines (go build -gcflags=-m ./internal/stats)" >&2; exit 1; }; \
	done
	@bad=$$(awk '/^func /{fn=$$0} /os\.Remove|syscall\.Unlink|unix\.Unlink/ && !/^var removeFile = os\.Remove$$/ && fn !~ /^func \(st \*Store\) recover\(/ {print FILENAME ":" FNR ": " $$0}' $$(ls internal/spill/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$bad" ]; then \
		echo "make lint: internal/spill unlinks outside the reaper's removeFile hook and recover:" >&2; \
		echo "$$bad" >&2; exit 1; \
	fi

# check = lint + no stray generator artifacts + the benchmark certificates
# parse and meet their thresholds. BENCH_incr.json is not committed (it is
# regenerated here, ~15 s); the other certificates are, so run `make bench`
# to regenerate them on failure. The *.json.new guard catches
# half-finished regenerations (a BENCH_*.json.new left behind by an
# interrupted write-then-rename) before they get committed.
check: lint BENCH_incr.json
	@stray=$$(find . -path ./.git -prune -o -name '*.json.new' -print); \
	if [ -n "$$stray" ]; then \
		echo "make check: stray *.json.new artifacts (remove or finish the rename):" >&2; \
		echo "$$stray" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/checkbench

# Chaos suite: the fault/replan/elastic property tests, repeated under the
# race detector to shake out both nondeterminism and data races. The fault
# package's own tests all exercise the fault machinery, so it runs whole;
# the churn sweep drives the full elastic-churn study (both regimes, all
# four policies) end to end through the CLI; the benchserve -fleet-chaos
# drill kills one replica of a live peer-cache fleet mid-run and requires
# every request to survive byte-identically through hedges and local
# fallback; the -spill-chaos drill bit-flips every on-disk spill segment
# under a warm tier and requires byte-identical fallback to evaluation
# (CRC pre-verification turns corruption into a miss, never a bad byte).
chaos:
	$(GO) test -race -count=3 ./internal/fault ./internal/cluster ./internal/spill
	$(GO) test -race -count=3 -run 'Chaos|Fault|Replan|Elastic|Redundant|Peer|Spill' ./internal/sim ./internal/api
	$(GO) run ./cmd/hetero churn -n 6 -L 1200 -seeds 5
	$(GO) run ./cmd/benchserve -fleet-chaos > /dev/null
	$(GO) run ./cmd/benchserve -spill-chaos > /dev/null

# Runs every Fuzz* target in the module for FUZZTIME each, one at a time
# (go test -fuzz takes one target per run), on at most two fuzz workers.
# Seeds alone run under `make test`; this searches past them.
FUZZTIME ?= 10s
fuzz:
	@for file in $$(grep -rlE '^func Fuzz' --include='*_test.go' cmd internal); do \
		for target in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' $$file); do \
			echo "fuzz $$target ./$$(dirname $$file)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -parallel 2 ./$$(dirname $$file) || exit 1; \
		done; \
	done

vet:
	$(GO) vet ./...

fmt:
	gofmt -w cmd internal examples perfbench bench_test.go

cover:
	$(GO) test -cover ./...

# Claim-by-claim replication certificate (non-zero exit on any failure).
replicate:
	$(GO) run ./cmd/hetero replicate

# Regenerate every paper table/figure into artifacts.txt.
artifacts:
	$(GO) run ./cmd/hetero all > artifacts.txt

clean:
	rm -f artifacts.txt test_output.txt bench_output.txt BENCH_incr.json BENCH_fault.json BENCH_serve.json BENCH_batch.json
