# Developer entry points. Everything is plain `go` underneath; the targets
# just pin the flag combinations used by CI and by EXPERIMENTS.md.

GO ?= go
INSTS ?= 1000000
# Content-addressed run cache shared by sweep/accuracy/serve: repeated runs
# with unchanged config+workload+seed+model are served without simulating.
CACHE_DIR ?= .simcache

.PHONY: build test race bench bench-test benchdiff bench-baseline sampling-speedup sweep experiments-check calibration-check accuracy serve smoke cluster-smoke verify verify-quick litmus clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler's contract is that parallel fan-out never changes results;
# the race target is how that claim is enforced.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# The benchmark under bench/ is a Go module of its own, so the root
# `go build ./...` never compiles it: vet and test it against this tree, so
# an API change here cannot break it silently.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Benchmark regression gate (scripts/benchdiff.sh): median-of-5 sched and
# runcache micro-benchmarks vs scripts/bench_baseline.json. allocs/op and
# B/op are a tight machine-independent gate (±15%); ns/op is loose by default
# (BENCH_NS_TOLERANCE=75) to survive noisy CI hosts. bench-baseline
# rewrites the baseline after an intended change.
benchdiff:
	./scripts/benchdiff.sh

bench-baseline:
	./scripts/benchdiff.sh -update

# Re-measures the sampled-simulation demonstration (4-CPU TPC-C, 2M
# insts/CPU: >= 10x speedup at |CPI error| < 5%) and rewrites the
# checked-in artifact scripts/sampling_speedup.json. Fails if the bar is
# missed. See DESIGN.md "Sampled simulation".
sampling-speedup:
	./scripts/sampling_speedup.sh

# Regenerates EXPERIMENTS.md at full trace length (stderr carries the
# per-study wall times, effective sim-instrs/s, and cache summary). The
# cache makes regeneration incremental: only runs invalidated by a config,
# workload, seed, or model-version change re-simulate.
sweep:
	$(GO) run ./cmd/sweep -insts $(INSTS) -markdown -cache-dir $(CACHE_DIR) > EXPERIMENTS.md

# The "same answers" gate: a cold full-length sweep into an empty cache
# directory must reproduce the checked-in EXPERIMENTS.md byte for byte. A
# change that moves any reported figure fails here until `make sweep`
# regenerates the file (and core.ModelVersion is bumped).
experiments-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	mkdir "$$dir/cache" && \
	$(GO) run ./cmd/sweep -insts 1000000 -markdown -cache-dir "$$dir/cache" > "$$dir/EXPERIMENTS.md" && \
	cmp "$$dir/EXPERIMENTS.md" EXPERIMENTS.md

# The analytic estimator's artifact must be what cmd/calibrate writes from
# the current model: the fit is deterministic, so any byte that differs
# means the checked-in coefficients are stale.
calibration-check:
	$(GO) run ./cmd/calibrate -out - | cmp - internal/analytic/calibration.json

accuracy:
	$(GO) run ./cmd/accuracy -cache-dir $(CACHE_DIR)

# Serves the simulator over HTTP (see cmd/simd and README "Simulation as
# a service"): POST /v1/run, GET /v1/studies/{id}, /healthz, /metrics.
serve:
	$(GO) run ./cmd/simd -cache-dir $(CACHE_DIR)

# End-to-end service check: boots simd, proves a repeated request is a
# cache hit via /metrics, and drains it with SIGINT.
smoke:
	./scripts/smoke.sh

# End-to-end cluster check: boots three peer-meshed simd workers behind
# a simgw gateway, runs a sweep twice, and proves via the gateway's
# /metrics that the warm pass simulated nothing anywhere in the pool;
# then drains a worker and shows the pool stays available. See DESIGN.md
# "Distributed tier".
cluster-smoke:
	./scripts/cluster_smoke.sh

# Metamorphic cross-verification harness (internal/metamorph, cmd/verify):
# monotonicity, conservation, differential and TSO-conformance invariants
# over the model. verify-quick is the CI merge gate (litmus sweeps at 32
# seeds per shape) and writes the machine-readable verdict report CI
# uploads as an artifact; verify runs the whole catalog on every workload
# with litmus sweeps doubled to 64 seeds. See DESIGN.md "Verification" and
# "Memory-ordering verification".
verify-quick:
	$(GO) run ./cmd/verify -quick -json verify-report.json

verify:
	$(GO) run ./cmd/verify -full -json verify-report.json

# TSO litmus sweeps with the outcome histograms on stdout (the same
# machinery the tso-outcomes verify check gates on).
litmus:
	$(GO) run ./cmd/sparc64sim -litmus all

clean:
	$(GO) clean ./...
	rm -rf $(CACHE_DIR)
