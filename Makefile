GO ?= go

.PHONY: all build test race race-dist bench bench-smoke bench-check costmodel claims cover fmt-check vet staticcheck lint examples-smoke sbgpd-smoke dist-smoke fuzz-smoke mutants ci

all: build

build:
	$(GO) build ./...

# test shuffles execution order, mirroring CI, so inter-test state
# dependencies can't hide.
test:
	$(GO) test -shuffle=on ./...

# cover mirrors CI's coverage-summary step for the two hot packages.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/core/ ./internal/sweep/
	$(GO) tool cover -func=coverage.out

race:
	$(GO) test -race ./...

# race-dist runs internal/dist ten times under the race detector (~35 s):
# its tests race real workers over real time, so an interleaving that
# fails one run in eight fails here instead of passing by luck.
race-dist:
	$(GO) test -race -count=10 ./internal/dist/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools if installed; CI installs it, and
# the target degrades to a notice on machines without it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# lint runs sbgplint, the repo's own go/analysis suite: it mechanically
# enforces the determinism, zero-alloc, and safety invariants that the
# golden and AllocsPerRun tests can only check after the fact (see
# DESIGN.md "Mechanically enforced invariants").
lint:
	$(GO) run ./cmd/sbgplint ./...

# examples-smoke executes every example program (small N where sized)
# so the walk-throughs run, not just compile, then walks the resumable
# one-shot workflow the README teaches: a 400-AS JobSpec with 16-cell
# shards and a checkpoint runs under bgpsim -job, its checkpoint is cut
# to the header plus 4 records, the rerun with "resume": true skips
# those, and both grids must cmp equal to a checkpoint-free run.
examples-smoke:
	$(GO) run ./examples/quickstart -n 400 >/dev/null
	$(GO) run ./examples/rollout -n 400 >/dev/null
	$(GO) run ./examples/downgrade >/dev/null
	$(GO) run ./examples/collateral >/dev/null
	$(GO) run ./examples/wedgie >/dev/null
	./scripts/resume_smoke.sh
	@echo "examples OK"

# sbgpd-smoke starts the resident daemon on an ephemeral port, drives
# a small headline grid through the HTTP API, SIGKILLs it mid-job on a
# multi-shard spec and right after submitting a one-shard one — each
# time restarting it on the same data directory and byte-diffing the
# finished grid against a one-shot bgpsim -job run — and shuts down
# cleanly, within 2 s of SIGTERM even with an events client attached to
# a job that is still running.
sbgpd-smoke:
	./scripts/sbgpd_smoke.sh

# dist-smoke runs the distributed path end to end: sbgpd -dist plus
# two sbgpworker processes, one SIGKILLed mid-grid (its lease expires
# and re-issues), and the finished grid byte-diffed against a one-shot
# bgpsim -job run of the same spec.
dist-smoke:
	./scripts/dist_smoke.sh

# fuzz-smoke runs each fuzz target briefly against its corpus plus a
# short exploration — a regression smoke, not a campaign. go test -fuzz
# takes one target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrom$$' -fuzztime $(FUZZTIME) ./internal/asgraph
	$(GO) test -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime $(FUZZTIME) ./internal/asgraph
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRecord$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzChainPlan$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzRunDelta$$' -fuzztime $(FUZZTIME) ./internal/core

# bench-check vets and tests the repo benchmark's own module (bench/,
# see BENCHMARK.json): a smoke over all five workload paths plus the
# seed-1 sha256 result digests, ~3 s. bench/ compiles against the root
# package's scenario surface (Scenario/Simulation/JobSpec and the aliases
# in sbgp.go) and imports sbgp/internal/{asgraph,core,deploy,dist,
# service,policy,runner,topogen} directly, so those names and those eight
# package paths are frozen; this guards them and the result bytes on
# every PR without running the benchmark itself.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# costmodel prints the planner's cost-model fit (TestDeltaCostModel):
# per planned walk step of the benchmark's deployment axes and the
# Fig 7(a) rollout-with-simplex axis, the planner's price against what
# the engine did — pass-0 and final dirty volume, passes, first-pass and
# late fallbacks, time over a from-scratch run. DESIGN.md's fit table is
# its output.
costmodel:
	$(GO) test -count=1 -run '^TestDeltaCostModel$$' -v ./internal/sweep

# claims prints the paper's claims table (TestPaperClaims): every row of
# exp.Claims on topogen seeds 1–5, plain | IXP-augmented, at -quick
# scale, with its verdicts (H holds, M misses) and smallest margin.
# DESIGN.md's "Paper claims" table is its output.
claims:
	$(GO) test -count=1 -run '^TestPaperClaims$$' -v ./internal/exp

# mutants prints the kill table (scripts/mutants.sh): each hand-seeded
# mutation, for every layer from the engine to the daemon, applied to a
# copy of the tree, the whole test suite run on it, and the tests that
# kill it. Every pattern is checked before the first suite runs. One
# suite run per mutation, so ci leaves it out; DESIGN.md's "The kill
# table" is its output.
mutants:
	./scripts/mutants.sh

# bench runs the Go micro-benchmarks at measurement scale: the paper's
# regenerators (BenchmarkExperiments, one sub-benchmark per E-index) and
# the zoom lenses, each the only measurement of its path. Every other
# number comes from the repo benchmark — five end-to-end workloads and a
# per-layer ladder, params-checked records, a -compare mode — which is
# `go run -C bench .` (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-smoke runs every micro-benchmark once, not to time it but so
# that each one's own checks run: cell counts, "monotonicity violated",
# the byte equality of WhatIfSeries and LeaseRanges (~12 s on 2 cores).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# ci mirrors the blocking jobs of .github/workflows/ci.yml.
ci: fmt-check vet staticcheck lint build test race race-dist bench-check bench-smoke examples-smoke sbgpd-smoke dist-smoke fuzz-smoke
