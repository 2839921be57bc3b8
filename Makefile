GO ?= go

.PHONY: all build test race bench bench-check cover fmt-check vet staticcheck lint examples-smoke sbgpd-smoke dist-smoke fuzz-smoke ci

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
# so the walk-throughs run, not just compile.
examples-smoke:
	$(GO) run ./examples/quickstart -n 400 >/dev/null
	$(GO) run ./examples/rollout -n 400 >/dev/null
	$(GO) run ./examples/downgrade >/dev/null
	$(GO) run ./examples/collateral >/dev/null
	$(GO) run ./examples/wedgie >/dev/null
	@echo "examples OK"

# sbgpd-smoke starts the resident daemon on an ephemeral port, drives
# a small headline grid through the HTTP API, and shuts down cleanly —
# within 2 s of SIGTERM even with an events client attached to a job
# that is still running.
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
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRecord$$' -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzChainPlan$$' -fuzztime $(FUZZTIME) ./internal/sweep

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

# bench runs the Go micro-benchmarks at measurement scale. The repo
# benchmark itself — five end-to-end workloads, params-checked records,
# a -compare mode — is `go run -C bench .` (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# ci mirrors the blocking jobs of .github/workflows/ci.yml.
ci: fmt-check vet staticcheck lint build test race bench-check examples-smoke sbgpd-smoke dist-smoke fuzz-smoke
