// Package core is the top of the performance model — the paper's primary
// contribution. A Model binds a machine configuration to workloads and
// exposes the analyses the paper runs on it: plain runs (IPC and rates),
// the perfect-ization stall breakdown of Figure 7, and the model-fidelity
// version ladder (v1..v8) behind the accuracy study of Figure 19.
package core

import (
	"context"
	"math"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// ModelVersion identifies the simulator's timing semantics for the run
// cache (internal/runcache): a cached result is only reused by the exact
// version that produced it. Bump this on ANY change that can alter
// simulation output — timing fixes, new counters, workload-generator
// changes — or stale results will be served as current ones.
const ModelVersion = "sparc64v-model/6"

// Model is a machine configuration ready to run workloads.
type Model struct {
	cfg config.Config
}

// NewModel validates cfg and wraps it.
func NewModel(cfg config.Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Config returns a copy of the model's configuration.
func (m *Model) Config() config.Config { return m.cfg }

// RunOptions controls a simulation run.
type RunOptions struct {
	// Insts is the trace length per CPU in instructions.
	Insts int
	// Seed selects the synthetic trace (the paper samples several trace
	// windows; different seeds play that role).
	Seed int64
	// MaxCycles caps the run as a hang guard; 0 derives a generous cap
	// from Insts.
	MaxCycles uint64
	// Warmup is the per-CPU committed-instruction count excluded from
	// statistics (cache/BHT warmup, mirroring the paper's steady-state
	// trace capture); 0 means Insts/5.
	Warmup uint64
	// Workers bounds harness-level fan-out (RunJobs): how many independent
	// simulations (BreakdownContext's fidelity runs, RunManyContext's
	// seeds, the expt studies) run concurrently. 0 means GOMAXPROCS, 1
	// forces a serial run. It never changes results — every job owns its
	// model and trace state, and results are assembled in submission order.
	Workers int
	// Cache, when non-nil, serves profile-based runs content-addressed:
	// the result of an identical (configuration, workload, seed, insts,
	// model version) run is returned from the cache instead of being
	// re-simulated, and concurrent identical runs share one simulation.
	// Results are byte-identical either way (see runcache). Trace-file
	// runs (RunSourcesContext) are never cached — a file has no stable
	// content key here.
	Cache *runcache.Cache
	// Obs, when non-nil, collects a per-run profile span (wall time split
	// into build/sim/report/cache phases, plus the run's headline counters)
	// for every simulation executed under these options. nil disables
	// profiling at zero cost; profiling never changes simulation results
	// (pinned by TestInstrumentationIsInvisible).
	Obs *obs.Collector
	// Sample, when enabled, switches the run to sampled simulation: most of
	// the trace fast-forwards through a functional executor and only
	// periodic detailed windows are measured (see sample.go). The sampled
	// Report estimates the full run's rates and CPI at a fraction of the
	// wall time; Report.Sampling records the schedule and error bound.
	// Sampling is part of the run's cache identity (runcache.Key.Sampling),
	// so sampled and full results never cross-serve. Under sampling, Warmup
	// is fast-forwarded before the first interval (so sampled and full runs
	// measure the same post-warm-up population) and the per-window detailed
	// warm-up replaces the classic measurement reset.
	Sample config.Sampling
	// Batch, when > 1, lets RunJobs (and the harnesses on it: internal/expt,
	// cmd/sweep, cmd/accuracy) group up to Batch runs that share a workload
	// trace (same BatchKey) and execute each group through RunBatch,
	// decoding the trace once for the whole group. Like Workers it never
	// changes results — batched Reports are byte-identical to serial ones —
	// only how the work is scheduled. 0 or 1 disables batching.
	Batch int
}

func (o *RunOptions) defaults() {
	if o.Insts <= 0 {
		o.Insts = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = uint64(o.Insts)*400 + 10_000_000
	}
	if o.Warmup == 0 {
		o.Warmup = uint64(o.Insts / 5)
	}
}

// RunContext simulates the profile on this model. For multiprocessor
// configurations one trace per CPU is generated (sharing the profile's
// Shared region). The simulation polls ctx on a coarse stride and returns a
// partial report wrapped around ctx.Err() when cancelled mid-run.
//
// With opt.Cache set the run is content-addressed: a prior identical run's
// report is returned without simulating, and concurrent identical runs
// share one simulation. Failed or cancelled runs are never cached.
func (m *Model) RunContext(ctx context.Context, p workload.Profile, opt RunOptions) (system.Report, error) {
	opt.defaults()
	reps, errs := make([]system.Report, 1), make([]error, 1)
	runProfile(ctx, []*Model{m}, p, opt, reps, errs)
	return reps[0], errs[0]
}

// RunKey is the content address RunContext files the run under. Callers
// that drive the cache themselves (the experiment server, which inserts
// admission control between the cache and the simulator) use it so their
// entries stay interchangeable with runs cached directly through
// RunContext.
func (m *Model) RunKey(p workload.Profile, opt RunOptions) (runcache.Key, error) {
	opt.defaults()
	return m.runKey(p, opt)
}

// runKey builds the run's content address. The effective warmup is part of
// the hashed configuration (it changes measured cycles); the profile is
// hashed in full so two profiles sharing a display name cannot collide.
func (m *Model) runKey(p workload.Profile, opt RunOptions) (runcache.Key, error) {
	cfg := m.cfg
	cfg.WarmupInsts = opt.Warmup
	ch, err := cfg.Hash()
	if err != nil {
		return runcache.Key{}, err
	}
	ph, err := config.HashJSON(p)
	if err != nil {
		return runcache.Key{}, err
	}
	key := runcache.Key{
		ConfigHash:  ch,
		Workload:    p.Name,
		ProfileHash: ph,
		Seed:        opt.Seed,
		Insts:       opt.Insts,
		Version:     ModelVersion,
	}
	// A sampled run produces a different (estimated) Report than a full
	// run of the same inputs, so the sampling schedule joins the content
	// address; the empty string keeps full-run keys unchanged.
	if opt.Sample.Enabled() {
		sj, err := config.CanonicalJSON(opt.Sample)
		if err != nil {
			return runcache.Key{}, err
		}
		key.Sampling = string(sj)
	}
	return key, nil
}

// RunSourcesContext simulates explicit trace sources (e.g. trace files),
// one per CPU: a batch of one through the run engine, reading the sources
// directly. On cancellation it returns the partial report alongside an
// error wrapping ctx.Err().
func (m *Model) RunSourcesContext(ctx context.Context, label string, srcs []trace.Source, opt RunOptions) (system.Report, error) {
	opt.defaults()
	mb, err := m.start(label, srcs, opt, false)
	if err != nil {
		return system.Report{}, err
	}
	reps, errs := drive(ctx, []member{mb}, nil, nil)
	return reps[0], errs[0]
}

// spanReport copies a run's headline counters onto its span. The simulator
// interleaves all pipeline stages in one cycle loop, so per-stage *time*
// is not separable without per-cycle clock reads; per-stage *activity* is
// free — the machine already counted it — and is what profiles carry.
func spanReport(sp *obs.Span, r system.Report) {
	if sp == nil {
		return
	}
	sp.Add("cycles", int64(r.Cycles))
	sp.Add("committed", int64(r.Committed))
	sp.Add("bus_wait_cycles", int64(r.BusWaitCycles))
	sp.Add("dram_wait_cycles", int64(r.DRAMWaitCycles))
	if r.HitCap {
		sp.Add("hit_cap", 1)
	}
	for i := range r.CPUs {
		c := &r.CPUs[i]
		sp.Add("fetched", int64(c.Core.Fetched))
		sp.Add("branches", int64(c.Branch.Branches()))
		sp.Add("mispredicts", int64(c.Branch.Mispredicts()))
		sp.Add("l1i_accesses", int64(c.L1I.DemandAccesses))
		sp.Add("l1i_misses", int64(c.L1I.DemandMisses))
		sp.Add("l1d_accesses", int64(c.L1D.DemandAccesses))
		sp.Add("l1d_misses", int64(c.L1D.DemandMisses))
		sp.Add("l2_accesses", int64(c.L2.DemandAccesses))
		sp.Add("l2_misses", int64(c.L2.DemandMisses))
	}
}

// BreakdownResult is the Figure 7 analysis for one workload: the share of
// execution time lost to each stall class, obtained by progressively
// perfect-izing the machine.
type BreakdownResult struct {
	// Workload names the trace.
	Workload string
	// Breakdown holds the shares (core / branch / ibs+tlb / sx).
	Breakdown stats.Breakdown
	// Base, PerfectL2, PerfectL1, PerfectAll are the four runs' reports.
	Base, PerfectL2, PerfectL1, PerfectAll system.Report
}

// BreakdownConfigs returns the study's four configurations in fixed order:
// the real machine, a machine whose L2 never misses, one whose L1s and
// TLBs also never miss, and one with perfect branch prediction on top.
func BreakdownConfigs(cfg config.Config) []config.Config {
	return []config.Config{
		cfg.WithPerfect(config.Perfect{}),
		cfg.WithPerfect(config.Perfect{L2: true}),
		cfg.WithPerfect(config.Perfect{L2: true, L1: true, TLB: true}),
		cfg.WithPerfect(config.Perfect{L2: true, L1: true, TLB: true, Branch: true}),
	}
}

// AssembleBreakdown attributes execution time from the four reports of the
// BreakdownConfigs runs (same order). The cycle-count deltas attribute
// execution time exactly as section 4.2.
func AssembleBreakdown(workload string, reports []system.Report) BreakdownResult {
	res := BreakdownResult{Workload: workload}
	res.Base, res.PerfectL2, res.PerfectL1, res.PerfectAll =
		reports[0], reports[1], reports[2], reports[3]
	res.Breakdown = stats.FromCycles(
		res.Base.MeasuredCycles(), res.PerfectL2.MeasuredCycles(),
		res.PerfectL1.MeasuredCycles(), res.PerfectAll.MeasuredCycles())
	return res
}

// BreakdownContext runs the four-model perfect-ization study on one
// workload. The four runs are independent jobs (RunJobs) sharing ctx.
func (m *Model) BreakdownContext(ctx context.Context, p workload.Profile, opt RunOptions) (BreakdownResult, error) {
	var jobs []Job
	for _, cfg := range BreakdownConfigs(m.cfg) {
		jobs = append(jobs, Job{Config: cfg, Profile: p, Opt: opt})
	}
	reports, errs := RunJobs(ctx, jobs, opt)
	if err := firstErr(errs); err != nil {
		return BreakdownResult{Workload: p.Name}, err
	}
	return AssembleBreakdown(p.Name, reports), nil
}

// Version is one rung of the model-fidelity ladder the paper labels
// v1..v8 (Figure 19): each version models more of the machine, so the
// performance estimate generally decreases as fidelity improves — except
// where better modeling removes a pessimistic approximation (v5's detailed
// special-instruction modeling).
type Version struct {
	// Name is the paper-style label ("v1".."v8").
	Name string
	// Detail describes what the version adds.
	Detail string
	// Apply derives the version's configuration from the final machine.
	Apply func(config.Config) config.Config
}

// Versions returns the ladder, oldest first. v8 is the final model.
func Versions() []Version {
	lad := func(f config.Fidelity, detailedSpecial bool) func(config.Config) config.Config {
		return func(c config.Config) config.Config {
			return c.WithFidelity(f, detailedSpecial)
		}
	}
	base := config.Fidelity{} // everything off
	flat := base
	flat.FlatMemory = true
	flat.FlatMemoryCycles = 22
	v2 := base // detailed latencies, no contention
	v3 := v2
	v3.BHTBubbles = true
	v4 := v3
	v4.BankConflicts = true
	v5 := v4
	v6 := v5
	v6.TLBModeled = true
	v7 := v6
	v7.BusContention = true
	v8 := config.FullFidelity()
	return []Version{
		{"v1", "flat-latency memory, idealized front end", lad(flat, false)},
		{"v2", "detailed cache/memory latencies", lad(v2, false)},
		{"v3", "BHT access bubbles on taken branches", lad(v3, false)},
		{"v4", "L1 operand cache bank conflicts", lad(v4, false)},
		{"v5", "detailed special-instruction modeling", lad(v5, true)},
		{"v6", "TLB miss modeling", lad(v6, true)},
		{"v7", "bus and memory-bank contention", lad(v7, true)},
		{"v8", "MP coherence transfer timing (final model)", lad(v8, true)},
	}
}

// Aggregate summarizes repeated runs of one configuration over several
// trace samples (different seeds), the analogue of the paper sampling
// multiple windows of its TPC-C traces.
type Aggregate struct {
	// Reports holds the per-seed reports.
	Reports []system.Report
	// MeanIPC and StdIPC summarize the IPC distribution.
	MeanIPC, StdIPC float64
}

// RunManyContext runs the profile over n consecutive seeds starting at
// opt.Seed. The seeds are independent jobs (RunJobs) sharing ctx; reports
// stay in seed order regardless of completion order.
func (m *Model) RunManyContext(ctx context.Context, p workload.Profile, opt RunOptions, n int) (Aggregate, error) {
	if n < 1 {
		n = 1
	}
	opt.defaults()
	var agg Aggregate
	jobs := make([]Job, n)
	for i := range jobs {
		o := opt
		o.Seed = opt.Seed + int64(i)
		jobs[i] = Job{Config: m.cfg, Profile: p, Opt: o}
	}
	reports, errs := RunJobs(ctx, jobs, opt)
	if err := firstErr(errs); err != nil {
		return agg, err
	}
	ipcs := make([]float64, 0, n)
	for _, r := range reports {
		agg.Reports = append(agg.Reports, r)
		ipcs = append(ipcs, r.IPC())
	}
	agg.MeanIPC = stats.Mean(ipcs)
	var ss float64
	for _, x := range ipcs {
		d := x - agg.MeanIPC
		ss += d * d
	}
	if len(ipcs) > 1 {
		agg.StdIPC = math.Sqrt(ss / float64(len(ipcs)-1))
	}
	return agg, nil
}
