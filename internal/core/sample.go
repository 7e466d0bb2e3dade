package core

// Sampled simulation (SMARTS-style systematic sampling).
//
// A sampled run alternates three modes over the trace:
//
//	fast-forward      functional execution (cpu.FastForward): caches, TLBs
//	                  and the branch predictor stay warm; no cycles pass.
//	detailed warm-up  the out-of-order model runs but its statistics are
//	                  discarded — it re-establishes the pipeline, queue and
//	                  MSHR state the functional mode does not track.
//	measurement       the out-of-order model runs and the window's counter
//	                  deltas accumulate into the final Report.
//
// Measurement reads the machine's counter set (system.Counters) before and
// after each window and accumulates the difference, so warm-up and
// fast-forward pollution of shared counters never leaks into results. The
// headline CPI is the ratio estimator Σcycles/Σcommitted over all windows;
// the per-window CPI spread yields the reported confidence bound.
//
// A sampled run is a member of the run engine (batch.go): its actions are
// the schedule loop written out — fast-forward the warm-up, then warm
// window, measure window, fast-forward the gap, until the cycle cap or the
// end of the trace — yielding each action's trace demand (one fast-forward
// chunk on one CPU, or one detailed window on every CPU) just before
// performing it. The engine runs a lone run's actions back to back and
// interleaves a batch's actions against a shared trace ring; either way
// each machine executes the identical action sequence, so sampled Reports
// are byte-identical serial vs batched and at any harness worker count,
// exactly like full runs.

import (
	"context"
	"iter"
	"math"

	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/obs"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
)

// sampleGate budgets a CPU's trace source: Next serves at most budget
// records, so a detailed window ends (the CPU drains) after exactly the
// window's instruction count — or earlier when the underlying trace dries
// up, which dry latches.
type sampleGate struct {
	src    trace.Source
	budget int
	dry    bool
}

// Next implements trace.Source.
func (g *sampleGate) Next(r *trace.Record) bool {
	if g.budget <= 0 || g.dry {
		return false
	}
	if !g.src.Next(r) {
		g.dry = true
		return false
	}
	g.budget--
	return true
}

// aggregateCPI returns k's cycles per committed instruction summed over
// CPUs, and false when k committed nothing.
func aggregateCPI(k *system.Counters) (float64, bool) {
	var cyc, com uint64
	for i := range k.CPUs {
		cyc += k.CPUs[i].Core.Cycles
		com += k.CPUs[i].Core.Committed
	}
	if com == 0 {
		return 0, false
	}
	return float64(cyc) / float64(com), true
}

// ffChunk bounds one fast-forward action (records on one CPU). The chunk
// keeps a batched member's single action — and therefore its demand on the
// shared trace ring — bounded, and it is the functional-mode cancellation
// stride: the engine polls its context between actions.
const ffChunk = 4096

// sampledRun is one machine's sampled simulation: the gated sources, the
// functional executors and the accumulated measurement. It is an engine
// member: its actions run the schedule, and finish closes it out.
type sampledRun struct {
	m     *Model
	label string
	opt   RunOptions
	sc    config.Sampling
	sp    *obs.Span
	sys   *system.System
	gates []*sampleGate
	ffs   []*cpu.FastForward
	ncpu  int

	simErr error
	capped bool

	acc            system.Counters
	windows        []float64
	measuredCycles uint64
}

// newSampledRun validates the schedule and builds the machine over srcs;
// sp is the run's span.
func newSampledRun(m *Model, label string, srcs []trace.Source, opt RunOptions, sp *obs.Span) (*sampledRun, error) {
	sc := opt.Sample
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &sampledRun{m: m, label: label, opt: opt, sc: sc, sp: sp}
	cfg := m.cfg
	// The per-window detailed warm-up replaces the warm-up reset; a
	// mid-run resetMeasurement would corrupt the window deltas.
	cfg.WarmupInsts = 0
	endBuild := r.sp.Phase(obs.PhaseBuild)
	r.gates = make([]*sampleGate, len(srcs))
	gsrcs := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		r.gates[i] = &sampleGate{src: s}
		gsrcs[i] = r.gates[i]
	}
	sys, err := system.New(cfg, gsrcs)
	if err != nil {
		endBuild()
		return nil, err
	}
	r.sys = sys
	r.ncpu = cfg.CPUs
	r.ffs = make([]*cpu.FastForward, r.ncpu)
	for i := 0; i < r.ncpu; i++ {
		r.ffs[i] = cpu.NewFastForward(sys.CPU(i))
	}
	endBuild()
	r.acc = system.Counters{CPUs: make([]cpu.Counters, r.ncpu)}
	return r, nil
}

// actions runs the schedule
//
//	FF(warmup+offset) → [ warm window → measure window → FF(gap) ]*
//
// until the machine hits its cycle cap or every trace runs dry, yielding
// each action's demand before performing it. A fast-forward region
// advances CPU by CPU in ffChunk actions; under MP the inter-CPU order is
// part of the result, since functional stores invalidate peer cache lines
// through the coherence controller. A cap does not stop a pending
// fast-forward region (only windows respect it); a simulation error —
// a cancellation seen inside a window — ends the run.
func (r *sampledRun) actions(ctx context.Context) iter.Seq[demand] {
	return func(yield func(demand) bool) {
		ff := func(n int) bool {
			for i, g := range r.gates {
				for left := n; left > 0 && !g.dry; left -= ffChunk {
					k := min(left, ffChunk)
					if !yield(demand{i, k}) {
						return false
					}
					r.fastForwardOne(i, k)
				}
			}
			return true
		}
		window := func(n int) bool {
			if !yield(demand{-1, n}) {
				return false
			}
			r.runWindow(ctx, n)
			return true
		}
		// Fast-forward the run-level warm-up region plus the schedule's
		// offset before the first interval. A full run excludes its first
		// opt.Warmup committed instructions from statistics (the
		// cold-start transient); sampling the same population is what
		// makes sampled and full reports comparable — without this skip
		// the early windows measure cold caches the full run deliberately
		// discards.
		if !ff(int(r.opt.Warmup) + r.sc.OffsetInsts) {
			return
		}
		gap := r.sc.IntervalInsts - r.sc.WarmupInsts - r.sc.MeasureInsts
		for !r.capped && !r.allDry() {
			if !window(r.sc.WarmupInsts) {
				return
			}
			pre, preCyc := r.sys.Counters(), r.sys.Cycle()
			if r.simErr != nil || !window(r.sc.MeasureInsts) {
				return
			}
			d := r.sys.Counters()
			d.Sub(pre)
			if cpi, ok := aggregateCPI(&d); ok {
				r.acc.Add(d)
				r.measuredCycles += r.sys.Cycle() - preCyc
				r.windows = append(r.windows, cpi)
			}
			if r.simErr != nil || !ff(gap) {
				return
			}
		}
	}
}

// allDry reports whether every CPU's trace is exhausted.
func (r *sampledRun) allDry() bool {
	for _, g := range r.gates {
		if !g.dry {
			return false
		}
	}
	return true
}

// fastForwardOne advances CPU i by up to n records functionally.
func (r *sampledRun) fastForwardOne(i, n int) {
	g := r.gates[i]
	end := r.sp.Phase(obs.PhaseFastForward)
	defer end()
	var rec trace.Record
	for k := 0; k < n; k++ {
		if !g.src.Next(&rec) {
			g.dry = true
			return
		}
		r.ffs[i].Step(&rec)
	}
}

// runWindow gives every live CPU a budget of n records and runs the
// detailed machine until it drains again.
func (r *sampledRun) runWindow(ctx context.Context, n int) {
	if n <= 0 || r.capped {
		return
	}
	live := false
	for i, g := range r.gates {
		if g.dry {
			continue
		}
		g.budget = n
		r.sys.CPU(i).ResumeSource()
		live = true
	}
	if !live {
		return
	}
	end := r.sp.Phase(obs.PhaseSim)
	_, c, err := r.sys.RunContext(ctx, r.opt.maxCycles())
	end()
	if err != nil {
		r.simErr = err
		return
	}
	if c {
		r.capped = true
	}
}

// finish assembles the Report: the accumulated window deltas become the
// counter blocks, and Sampling carries the schedule, mode split and error
// model. Call exactly once: after the actions end, or with the
// cancellation error cerr.
func (r *sampledRun) finish(cerr error) (system.Report, error) {
	if r.simErr == nil {
		r.simErr = cerr
	}
	sc := r.sc
	ncpu := r.ncpu

	// Degenerate schedules (trace shorter than one warm-up window, window
	// longer than the trace): no measurement window completed any commits,
	// so fall back to everything the detailed model did simulate: the live
	// counters, since a freshly built machine's counters are all zero.
	if len(r.windows) == 0 {
		r.acc = r.sys.Counters()
		r.measuredCycles = r.sys.Cycle()
		if cpi, ok := aggregateCPI(&r.acc); ok {
			r.windows = append(r.windows, cpi)
		}
	}

	endReport := r.sp.Phase(obs.PhaseReport)
	rep := r.acc.Report(r.m.cfg.Name, r.label, r.measuredCycles)
	rep.HitCap = r.capped

	var ffInsts, detInsts uint64
	for i := 0; i < ncpu; i++ {
		ffInsts += r.ffs[i].Insts
		detInsts += r.sys.CPU(i).Stats.Committed
		// Sampled Reports do not count TLB stall cycles yet: counting them
		// changes results, so it waits for the next ModelVersion bump.
		rep.CPUs[i].TLBStallCycles = 0
	}
	info := &system.SamplingInfo{
		Interval:       sc.IntervalInsts,
		Warmup:         sc.WarmupInsts,
		Measure:        sc.MeasureInsts,
		Offset:         sc.OffsetInsts,
		Windows:        len(r.windows),
		FastForwarded:  ffInsts,
		DetailedInsts:  detInsts,
		MeasuredInsts:  rep.Committed,
		DetailedCycles: r.sys.Cycle(),
	}
	if n := len(r.windows); n > 0 {
		info.CPIMean = stats.Mean(r.windows)
		if n > 1 {
			var ss float64
			for _, x := range r.windows {
				d := x - info.CPIMean
				ss += d * d
			}
			info.CPIStd = math.Sqrt(ss / float64(n-1))
			info.CPIHalf95 = 1.96 * info.CPIStd / math.Sqrt(float64(n))
		}
	}
	sanitizeSampling(info)
	if cpi, ok := aggregateCPI(&r.acc); ok {
		perCPU := float64(ffInsts+detInsts) / float64(ncpu)
		info.EstimatedCycles = uint64(cpi*perCPU + 0.5)
	}
	rep.Sampling = info

	meter(detInsts, r.sys.Cycle())
	endReport()
	spanReport(r.sp, rep)
	spanWork(r.sp, r.sys)
	r.sp.Add("ff_insts", int64(ffInsts))
	r.sp.Add("sample_windows", int64(len(r.windows)))
	r.sp.Finish()
	return rep, r.m.runErr(r.label, r.opt, r.simErr, r.capped)
}

// sanitizeSampling clamps the error-model fields to finite values.
// CPIStd/CPIHalf95 are left zero when Windows <= 1 (a single window has no
// variance estimate; n-1 == 0 would make the naive estimator NaN, and a
// NaN here breaks encoding/json marshaling of the whole Report, poisoning
// the runcache disk tier). Windows == 1 in the marshaled report is the
// explicit "no spread estimate" marker consumers should key on.
func sanitizeSampling(info *system.SamplingInfo) {
	if math.IsNaN(info.CPIMean) || math.IsInf(info.CPIMean, 0) {
		info.CPIMean = 0
	}
	if info.Windows <= 1 || math.IsNaN(info.CPIStd) || math.IsInf(info.CPIStd, 0) {
		info.CPIStd = 0
	}
	if info.Windows <= 1 || math.IsNaN(info.CPIHalf95) || math.IsInf(info.CPIHalf95, 0) {
		info.CPIHalf95 = 0
	}
}
