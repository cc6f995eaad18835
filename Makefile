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

# The four perf certificates. Each generator prints one certificate
# (internal/benchcert: a host block and claims carrying their raw samples)
# and exits non-zero if benchcert.Check rejects it; the claims and their
# thresholds are listed in DESIGN.md "Benchmark certificates". A run writes
# $@.new and renames it over $@ only on success, so an interrupted or
# failing run leaves the committed certificate intact (and the .new file
# for `make check` to flag).
#
# BENCH_incr.json: brute vs incremental speedup search (≥2× at n=256, ≥10×
# at n=4096), cached /v1/measure serving report-only.
BENCH_incr.json: FORCE
	$(GO) run ./cmd/benchincr > $@.new && mv $@.new $@

# BENCH_fault.json: the fault-aware integrator's empty-plan overhead (≤2×
# plain RunCEP at n=1024) and the elastic-churn regime (replicated-2@0.15
# out-salvages ride-vs-replan ≥1.2× over 5 jitter seeds, fault-free
# duplication overhead ≤2×); replanner timing reported for scale.
BENCH_fault.json: FORCE
	$(GO) run ./cmd/benchfault > $@.new && mv $@.new $@

# BENCH_serve.json: the serving hot path — mixed herd ≥3×, many_clients
# coalescing, the fleet peer tier (wall clock and evaluations per key), the
# spill sweep (wall clock, hits, bounded heap peak) and warm restart (hit
# rate, spill provenance); hit, miss and large_n report-only.
BENCH_serve.json: FORCE
	$(GO) run ./cmd/benchserve > $@.new && mv $@.new $@

# BENCH_batch.json: the memory-aware batch engine — few_large ≥3× and
# dedup_heavy ≥1.1× at the 95% CI low end, many_small report-only, and the
# streamed render's heap peak ≤0.25× the buffered one.
BENCH_batch.json: FORCE
	$(GO) run ./cmd/benchbatch > $@.new && mv $@.new $@

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

# check = lint + no stray generator artifacts + cmd/checkbench: every
# certificate's claims re-derived from their raw samples, gated, and held
# against bench_history/ of the same host shape (a different num_cpu or
# GOMAXPROCS fails and names the re-seed step). BENCH_incr.json is not
# committed (it is regenerated here, ~35 s); the other certificates are,
# so run `make bench` to regenerate them on failure. The *.json.new guard
# catches half-finished regenerations (a BENCH_*.json.new left behind by an
# interrupted or failing run) before they get committed.
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
	rm -f artifacts.txt test_output.txt bench_output.txt BENCH_incr.json BENCH_fault.json BENCH_serve.json BENCH_batch.json BENCH_*.json.new
