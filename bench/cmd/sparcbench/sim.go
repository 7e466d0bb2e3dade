package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"sparc64v/internal/obs"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
)

// simOp is one timed unit of a simulation workload: one call into core.
type simOp struct {
	label string
	// insts is the requested instructions × CPUs over the op's runs, the
	// numerator of sim_minst_per_s.
	insts float64
	run   func(ctx context.Context, sc scope, col *obs.Collector) ([]system.Report, error)
}

// simPlan is a simulation workload. One round runs every op once through
// sched.MapAllCtx; rounds repeat until the measured time is up, so each
// round carries the same work and round throughputs compare directly.
type simPlan struct {
	workers int
	setup   func(ctx context.Context) error
	ops     []simOp
	// verify runs the untimed differential checks against the digests the
	// measured ops produced, keyed by op label (one per report).
	verify func(ctx context.Context, got map[string][]string) []check
	// setupDigests lists digests of outputs set-up produced; they join the
	// golden digest after the ops'.
	setupDigests func() []string
	// refCPI returns the reference CPIs set-up measured, for -regen.
	refCPI func() map[string]float64
	// layers runs the traced run's standalone layer passes and any
	// workload-specific per-layer values.
	layers    func(ctx context.Context, m map[string]float64, traced []opOut) error
	notOnPath []string
	// frontend names the per-record layer metric of the trace front end the
	// ops pull from inside the cycle loop (decode or generation) and
	// frontendRecs the records one op pulls; the traced run prices the
	// front end's share of op wall from the standalone pass.
	frontend     string
	frontendRecs float64
}

// opOut is what one op of a round returned.
type opOut struct {
	reps []system.Report
	col  *obs.Collector
	wall time.Duration
	op   *simOp
}

// runSim sets the workload up e.sizes.setups times, then measures rounds
// for e.dur, checks every output, and computes the end-to-end metrics (or,
// in a traced run, the per-layer ones).
func runSim(ctx context.Context, e *env, p *simPlan) (*outcome, error) {
	oc := &outcome{values: map[string]float64{}, notOnPath: p.notOnPath}
	var setups []float64
	for i := 0; i < e.sizes.setups; i++ {
		t0 := time.Now()
		if err := p.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	first := make(map[string][]string) // op label → report digests of its first run
	var (
		plainTput, tracedTput []float64
		opMS                  []float64
		traced                []opOut
		busy, roundWall       time.Duration
		mallocs, allocBytes   uint64
		tracedInsts           float64
	)
	stopRSS := sampleRSS([]int{os.Getpid()})
	minRounds := 1
	if e.traced {
		minRounds = 2 // at least one untraced round to price the tracing
	}
	start := time.Now()
	for r := 0; r < minRounds || (!e.regen && time.Since(start) < e.dur); r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr := e.traced && r%2 == 0
		var sc scope
		if tr {
			sc = e.rec.root(r + 1)
		}
		rsc, endRound := sc.begin("sched.round")
		var ms0, ms1 runtime.MemStats
		if tr {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		outs, errs := sched.MapAllCtx(ctx, len(p.ops), sched.Options{Workers: p.workers},
			func(ctx context.Context, i int) (opOut, error) {
				op := &p.ops[i]
				var col *obs.Collector
				if tr {
					col = obs.NewCollector()
				}
				osc, endOp := rsc.begin(opSpan)
				t := time.Now()
				reps, err := op.run(ctx, osc, col)
				wall := time.Since(t)
				endOp()
				return opOut{reps: reps, col: col, wall: wall, op: op}, err
			})
		wall := time.Since(t0)
		if tr {
			runtime.ReadMemStats(&ms1)
		}
		endRound()

		var insts float64
		for i, o := range outs {
			oc.attempted++
			op := &p.ops[i]
			insts += op.insts
			if err := errs[i]; err != nil {
				oc.fail(e, fmt.Sprintf("op %s", op.label), err)
				continue
			}
			if err := checkOp(first, op.label, o.reps); err != nil {
				oc.fail(e, fmt.Sprintf("op %s", op.label), err)
				continue
			}
			opMS = append(opMS, float64(o.wall.Nanoseconds())/1e6)
			if tr {
				traced = append(traced, o)
				busy += o.wall
			}
		}
		tput := insts / wall.Seconds() / 1e6
		if tr {
			tracedTput = append(tracedTput, tput)
			roundWall += wall
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			tracedInsts += insts
		} else {
			plainTput = append(plainTput, tput)
		}
	}
	rss := stopRSS()

	var parts []string
	for _, op := range p.ops {
		parts = append(parts, first[op.label]...)
	}
	if p.setupDigests != nil {
		parts = append(parts, p.setupDigests()...)
	}
	oc.digest = combine(parts)
	if p.refCPI != nil {
		oc.refCPI = p.refCPI()
	}
	if e.regen {
		return oc, nil
	}
	oc.checkGolden(e)
	for _, c := range p.verify(ctx, first) {
		oc.attempted++
		if c.err != nil {
			oc.fail(e, c.name, c.err)
		}
	}

	if !e.traced {
		oc.values["setup_s"] = median(setups)
		oc.values["sim_minst_per_s"] = median(plainTput)
		oc.values["op_p50_ms"] = median(opMS)
		oc.values["rss_mib"] = rss
		fmt.Fprintf(e.out, "# %s rounds=%d ops=%d setups=%d\n", e.workload, len(plainTput), len(opMS), len(setups))
		return oc, nil
	}

	m := oc.values
	var acc layerAcc
	for _, o := range traced {
		acc.add(o)
	}
	acc.emit(m)
	runs := float64(acc.runs)
	m["core.allocs_per_run"] = safeDiv(float64(mallocs), runs)
	m["core.alloc_bytes_per_kinst"] = safeDiv(float64(allocBytes), tracedInsts/1000)
	m["sched.busy_share"] = safeDiv(busy.Seconds(), float64(sched.Workers(p.workers))*roundWall.Seconds())
	m["bench.trace_overhead_pct"] = 100 * safeDiv(median(plainTput)-median(tracedTput), median(plainTput))
	if err := p.layers(ctx, m, traced); err != nil {
		return nil, fmt.Errorf("layer passes: %w", err)
	}
	rows, opWall := layerTable(e.rec.snapshot())
	m["bench.unattributed_pct"] = 100 * unattributed(rows)
	printLayerTable(e.out, e.workload, rows, opWall)
	fe := m[p.frontend] * p.frontendRecs * float64(len(traced))
	fmt.Fprintf(e.out, "#   of which the %s front end ≈ %.1f ms (%.2f%% of op wall; standalone %s × %.0f records per op)\n",
		p.frontend, fe/1e6, 100*safeDiv(fe, float64(opWall)), p.frontend, p.frontendRecs)
	return oc, nil
}

// checkOp checks one op's reports: every report keeps the conservation
// invariants, and an op that ran before produced the same digests.
func checkOp(first map[string][]string, label string, reps []system.Report) error {
	ds := make([]string, len(reps))
	for i := range reps {
		if err := conserve(&reps[i]); err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
		d, err := reportDigest(&reps[i])
		if err != nil {
			return err
		}
		ds[i] = d
	}
	prev, ok := first[label]
	if !ok {
		first[label] = ds
		return nil
	}
	for i := range ds {
		if ds[i] != prev[i] {
			return fmt.Errorf("report %d differs from the op's first run", i)
		}
	}
	return nil
}

// layerAcc sums, over the traced ops, the simulated counters of their
// reports and the phase wall times of their obs profiles. cpu.ipc is
// committed instructions per CPU-cycle over all runs.
type layerAcc struct {
	runs                                   int
	simWall, ffWall, buildWall, reportWall float64 // seconds
	globalCycles, cpuCycles                float64
	detailedInsts, ffInsts                 float64
	committed, measuredCycles, zeroCommit  float64
	mispred, l1i, l1d, l2, tlbStall        float64
	c2c, inval, busWait, dramWait          float64
}

func (a *layerAcc) add(o opOut) {
	for _, p := range o.col.Profiles() {
		for _, ph := range p.Phases {
			switch ph.Phase {
			case obs.PhaseSim:
				a.simWall += ph.Seconds
			case obs.PhaseFastForward:
				a.ffWall += ph.Seconds
			case obs.PhaseBuild:
				a.buildWall += ph.Seconds
			case obs.PhaseReport:
				a.reportWall += ph.Seconds
			}
		}
	}
	for i := range o.reps {
		a.addReport(&o.reps[i], o.op.insts/float64(len(o.reps)))
	}
}

// addReport adds one run. insts is the run's requested instructions ×
// CPUs, all of which a full run simulates in detail.
func (a *layerAcc) addReport(r *system.Report, insts float64) {
	a.runs++
	cpus := float64(len(r.CPUs))
	if s := r.Sampling; s != nil {
		a.globalCycles += float64(s.DetailedCycles)
		a.cpuCycles += float64(s.DetailedCycles) * cpus
		a.detailedInsts += float64(s.DetailedInsts)
		a.ffInsts += float64(s.FastForwarded)
	} else {
		a.globalCycles += float64(r.Cycles)
		a.cpuCycles += float64(r.Cycles) * cpus
		a.detailedInsts += insts
	}
	a.committed += float64(r.Committed)
	a.c2c += float64(r.Coherence.CacheTransfers)
	a.inval += float64(r.Coherence.Invalidations)
	a.busWait += float64(r.BusWaitCycles)
	a.dramWait += float64(r.DRAMWaitCycles)
	for i := range r.CPUs {
		c := &r.CPUs[i]
		a.measuredCycles += float64(c.Core.Cycles)
		a.zeroCommit += float64(c.Core.ZeroCommitFrontend + c.Core.ZeroCommitMemory +
			c.Core.ZeroCommitExecute + c.Core.ZeroCommitRS + c.Core.ZeroCommitSpec)
		a.mispred += float64(c.Branch.Mispredicts())
		a.l1i += float64(c.L1I.DemandMisses)
		a.l1d += float64(c.L1D.DemandMisses)
		a.l2 += float64(c.L2.DemandMisses)
		a.tlbStall += float64(c.TLBStallCycles)
	}
}

// emit writes the per-layer values the accumulated runs determine.
func (a *layerAcc) emit(m map[string]float64) {
	ki := a.committed / 1000
	runs := float64(a.runs)
	m["cpu.ns_per_cpu_cycle"] = 1e9 * safeDiv(a.simWall, a.cpuCycles)
	m["cpu.ns_per_detailed_inst"] = 1e9 * safeDiv(a.simWall, a.detailedInsts)
	m["system.ns_per_global_cycle"] = 1e9 * safeDiv(a.simWall, a.globalCycles)
	m["cpu.zero_commit_share"] = safeDiv(a.zeroCommit, a.measuredCycles)
	// Integer counts summed as floats stay exact, so ratios of them repeat
	// bit for bit however many traced rounds a run reached.
	m["cpu.ipc"] = safeDiv(a.committed, a.measuredCycles)
	m["bpred.mispredicts_per_kinst"] = safeDiv(a.mispred, ki)
	m["cache.l1i_mpki"] = safeDiv(a.l1i, ki)
	m["cache.l1d_mpki"] = safeDiv(a.l1d, ki)
	m["cache.l2_mpki"] = safeDiv(a.l2, ki)
	m["tlb.stall_cycles_per_kinst"] = safeDiv(a.tlbStall, ki)
	m["coherence.c2c_per_kinst"] = safeDiv(a.c2c, ki)
	m["coherence.invalidations_per_kinst"] = safeDiv(a.inval, ki)
	m["mem.bus_wait_cycles_per_kinst"] = safeDiv(a.busWait, ki)
	m["mem.dram_wait_cycles_per_kinst"] = safeDiv(a.dramWait, ki)
	m["core.build_ms_per_run"] = 1e3 * safeDiv(a.buildWall, runs)
	m["core.report_ms_per_run"] = 1e3 * safeDiv(a.reportWall, runs)
	if a.ffInsts > 0 {
		m["core.ff_ns_per_inst"] = 1e9 * a.ffWall / a.ffInsts
	}
}

// coreCall times one call into core as a span named name and, when the
// run is traced, lays the call's obs phases end to end under it:
// core.build, cpu.fastforward, system.tick (the cycle loop: cpu, caches,
// TLBs, coherence, bus and memory, plus any trace decode or generation
// the loop pulls) and core.report. The call's own self time is what core
// does outside those phases.
func coreCall(sc scope, name string, col *obs.Collector, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	csc := sc.record(name, start, end)
	if col == nil {
		return err
	}
	sum := map[string]float64{}
	for _, p := range col.Profiles() {
		for _, ph := range p.Phases {
			sum[ph.Phase] += ph.Seconds
		}
	}
	at := start
	for _, ph := range []struct{ phase, span string }{
		{obs.PhaseBuild, "core.build"},
		{obs.PhaseFastForward, "cpu.fastforward"},
		{obs.PhaseSim, "system.tick"},
		{obs.PhaseReport, "core.report"},
	} {
		d := time.Duration(sum[ph.phase] * 1e9)
		if d <= 0 {
			continue
		}
		stop := at.Add(d)
		if stop.After(end) {
			stop = end
		}
		csc.record(ph.span, at, stop)
		at = stop
	}
	return err
}
