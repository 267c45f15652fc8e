# Local and CI invocations are the same commands: .github/workflows/ci.yml
# runs build, vet, fmt-check, race, bench-smoke, matchbench-smoke and the
# server smokes as individual steps, and `make ci` chains those same targets
# locally. Keep the two in sync when adding a step.

GO ?= go

.PHONY: build test race race4 bench bench-smoke matchbench-smoke serve serve-smoke soak soak-smoke fleet-smoke fmt fmt-check vet lint lint-extra ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race detection with a multi-core scheduler: a one-CPU default serializes
# the worker pools and can hide races in their own interleavings (solves of
# several modules sharing the solver pool, the compile pool handing modules
# to it, memo Puts racing spills). CI runs this as its own job.
race4:
	GOMAXPROCS=4 $(GO) test -race ./...

# Full benchmark harness (regenerates every table/figure of the paper).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# One-iteration smoke of the detection benchmarks so the harness cannot rot.
bench-smoke:
	$(GO) test -bench='BenchmarkTable1Detection|BenchmarkDetectParallel|BenchmarkPipeline|BenchmarkSolver' -benchtime=1x -run='^$$' .

# Short runs of the match-service benchmark (matchbench, declared in
# BENCHMARK.json) on both workloads, so the one perf harness cannot rot.
matchbench-smoke:
	bash scripts/matchbench_smoke.sh

# Run the HTTP detection server locally.
serve:
	$(GO) run ./cmd/idiomd

# End-to-end smoke of the server: healthz, one streamed detection, statsz.
serve-smoke:
	sh scripts/serve_smoke.sh

# Full hostile-traffic soak: auth probes, weighted-fair flood, deadline
# probes, drain asserts. Native timings, tight p99 budget.
soak:
	$(GO) run ./cmd/soak

# Short -race soak for CI: the race detector inflates solve times ~10-20x,
# so the p99 noise floor is raised accordingly — the share, auth, deadline
# and drain asserts run at full strength.
soak-smoke:
	$(GO) run -race ./cmd/soak -duration 16s -p99-floor 1s

# Durable-state + fleet smoke: single-replica warm restart and pack replay,
# two replicas behind idiomfront (warm pass 2, restart-warm via the router,
# snapshot handoff), then the fairness soak driven through the front door.
fleet-smoke:
	sh scripts/fleet_smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Repo-invariant analyzers (internal/lint via cmd/idiomvet): map-order
# determinism, per-candidate cancel polls, fsync-before-rename, the v1 error
# envelope, and wall-clock-free solve paths. Findings print file:line plus
# the invariant's rationale; suppress a documented exception with
# `//lint:allow <analyzer> <reason>`. Then third-party analyzers
# (staticcheck, govulncheck), pinned by version and skipped gracefully when
# the module proxy is unreachable.
lint:
	$(GO) run ./cmd/idiomvet
	sh scripts/lint_extra.sh

# Just the third-party half, for CI's dedicated lint job.
lint-extra:
	sh scripts/lint_extra.sh

# race4 subsumes race locally (same suite, stronger scheduler); CI runs race
# in the main job and race4 as its own parallel job.
ci: build vet fmt-check lint race4 bench-smoke matchbench-smoke serve-smoke soak-smoke fleet-smoke
