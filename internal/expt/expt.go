// Package expt reproduces every table and figure of the paper's evaluation
// (section 4 and 5). Each harness sets up the same machine comparisons the
// paper ran on its performance model and renders the same rows/series.
// Absolute numbers differ (synthetic workloads, not Fujitsu's traces) but
// the comparisons' shapes are the reproduction target; see EXPERIMENTS.md.
//
// Every study has one call form, func(context.Context, core.RunOptions)
// ([]Result, error), so Studies() lists the functions themselves and the
// sweep, the experiment service and the public facade call them alike.
// A study is a set of independent (configuration, workload) simulations —
// exactly how the paper's team ran them — so each one submits its runs to
// core.RunJobs (the sched worker pool, which batches same-trace runs into
// lockstep chunks on its own) and assembles tables from the
// deterministically ordered results.
// AllContext runs whole studies concurrently on top of that. Workers = 1
// (core.RunOptions.Workers) degenerates to the historical serial sweep
// with identical output.
package expt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/sched"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/verif"
	"sparc64v/internal/workload"
)

// Result is one reproduced table or figure.
type Result struct {
	// ID is the paper artifact ("Table 1", "Figure 7", ...).
	ID string
	// Title describes the study.
	Title string
	// Table holds the data.
	Table *stats.Table
	// Chart is an ASCII rendering of the figure's headline series (the
	// paper presents these as bar graphs), when one applies.
	Chart string
	// Notes records expected-shape commentary.
	Notes []string
	// Elapsed is the study's wall-clock time when produced by All
	// (results of one multi-figure study share the value). It is not part
	// of String(), so rendered tables stay byte-identical across worker
	// counts and hosts.
	Elapsed time.Duration
}

// String renders the result.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	if r.Chart != "" {
		s += "\n" + r.Chart
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// runJobs executes a study's simulations through core.RunJobs (scheduled
// opt.Workers wide, same-trace runs batched) and returns the reports in
// submission order with the lowest-index job error, so neither workers nor
// batching change the bytes or the error a caller observes (pinned by
// TestRunJobsBatchedMatchesSerial).
func runJobs(ctx context.Context, jobs []core.Job, opt core.RunOptions) ([]system.Report, error) {
	reps, errs := core.RunJobs(ctx, jobs, opt)
	for _, err := range errs {
		if err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// crossJobs builds the full (profile x config) product with one options
// value, profiles outermost — the iteration order every study table uses.
func crossJobs(profiles []workload.Profile, cfgs []config.Config, opt core.RunOptions) []core.Job {
	jobs := make([]core.Job, 0, len(profiles)*len(cfgs))
	for _, p := range profiles {
		for _, cfg := range cfgs {
			jobs = append(jobs, core.Job{Config: cfg, Profile: p, Opt: opt})
		}
	}
	return jobs
}

// mpOpt scales a run down for 16-processor studies (16 traces execute in
// one global-cycle loop; per-CPU windows shrink to keep total work sane).
func mpOpt(opt core.RunOptions) core.RunOptions {
	o := opt
	if o.Insts <= 0 {
		o.Insts = 400_000
	}
	o.Insts /= 4
	if o.Insts < 30_000 {
		o.Insts = 30_000
	}
	o.Warmup = uint64(o.Insts / 5)
	return o
}

// Table1 reports the base machine parameters (the paper's Table 1).
func Table1() Result {
	c := config.Base()
	t := stats.NewTable("SPARC64 V microarchitecture (base model)", "parameter", "value")
	t.AddRow("Instruction set architecture", "SPARC-V9")
	t.AddRow("Execution control", "out-of-order superscalar")
	t.AddRow("Issue width", c.CPU.IssueWidth)
	t.AddRow("Instruction window", c.CPU.WindowSize)
	t.AddRow("Instruction fetch width (bytes)", c.CPU.FetchBytes)
	t.AddRow("Renaming registers (int/fp)",
		fmt.Sprintf("%d/%d", c.CPU.IntRenameRegs, c.CPU.FPRenameRegs))
	t.AddRow("Reservation stations",
		fmt.Sprintf("RSE 2x%d, RSF 2x%d, RSA %d, RSBR %d",
			c.CPU.RSEEntries, c.CPU.RSFEntries, c.CPU.RSAEntries, c.CPU.RSBREntries))
	t.AddRow("Execution units",
		fmt.Sprintf("EX %d, FL %d (multiply-add), EAG %d",
			c.CPU.IntUnits, c.CPU.FPUnits, c.CPU.AGUnits))
	t.AddRow("Load/store queues",
		fmt.Sprintf("%d/%d", c.CPU.LoadQueueEntries, c.CPU.StoreQueueEntries))
	t.AddRow("Branch history table",
		fmt.Sprintf("%d-way, %dK-entry, %d-cycle", c.BHT.Ways, c.BHT.Entries>>10, c.BHT.AccessCycles))
	t.AddRow("L1 caches (I/D)",
		fmt.Sprintf("%d-way, %dKB, %d/%d-cycle", c.L1I.Ways, c.L1I.SizeBytes>>10,
			c.L1I.HitCycles, c.L1D.HitCycles))
	t.AddRow("L1D banks", fmt.Sprintf("%dx%dB", c.L1D.Banks, c.L1D.BankBytes))
	t.AddRow("L2 cache",
		fmt.Sprintf("on-chip %d-way %dMB, %d-cycle", c.Mem.L2.Ways,
			c.Mem.L2.SizeBytes>>20, c.Mem.L2.HitCycles))
	t.AddRow("Memory latency (cycles)", c.Mem.DRAMCycles)
	t.AddRow("Hardware prefetch",
		fmt.Sprintf("L1-miss triggered, degree %d, stride detector", c.Mem.PrefetchDegree))
	return Result{ID: "Table 1", Title: "Microarchitecture", Table: t}
}

// Fig07 reproduces the benchmark characterization: execution-time
// breakdown into core / branch / ibs+tlb / sx via perfect-ization.
// The study is 5 workloads x 4 perfect-ization rungs = 20 independent
// simulations, flattened onto one scheduler batch.
func Fig07(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Execution time breakdown (fraction of cycles)",
		"workload", "core", "branch", "ibs/tlb", "sx")
	profiles := workload.UPProfiles()
	cfgs := core.BreakdownConfigs(config.Base())
	reports, err := runJobs(ctx, crossJobs(profiles, cfgs, opt), opt)
	if err != nil {
		return nil, err
	}
	var labels []string
	var shares [][]float64
	for i, p := range profiles {
		br := core.AssembleBreakdown(p.Name, reports[i*len(cfgs):(i+1)*len(cfgs)])
		b := br.Breakdown
		t.AddRow(p.Name, b.Core, b.Branch, b.IBSTLB, b.SX)
		labels = append(labels, p.Name)
		shares = append(shares, []float64{b.Core, b.Branch, b.IBSTLB, b.SX})
	}
	chart := stats.StackedBars("", labels, shares,
		[]string{"core", "branch", "ibs/tlb", "sx"}, []rune{'c', 'b', 'i', 's'})
	return []Result{{
		ID:    "Figure 7",
		Title: "Benchmark characteristics",
		Table: t,
		Chart: chart,
		Notes: []string{
			"expected: TPC-C dominated by sx (L2 miss) stalls;",
			"SPECint95 spends ~30% on branch stalls; SPECfp95 ~74% in the core",
		},
	}}, nil
}

// Fig08 reproduces the issue-width study: 4-way vs 2-way IPC.
func Fig08(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Issue width: 4-way vs 2-way",
		"workload", "IPC 4w", "IPC 2w", "2w vs 4w %")
	base := config.Base()
	profiles := workload.UPProfiles()
	reports, err := runJobs(ctx, crossJobs(profiles,
		[]config.Config{base, base.WithIssueWidth(2)}, opt), opt)
	if err != nil {
		return nil, err
	}
	var labels []string
	var deltas []float64
	for i, p := range profiles {
		r4, r2 := reports[2*i], reports[2*i+1]
		d := stats.PercentDelta(r2.IPC(), r4.IPC())
		t.AddRow(p.Name, r4.IPC(), r2.IPC(), d)
		labels = append(labels, p.Name)
		deltas = append(deltas, d)
	}
	return []Result{{
		ID:    "Figure 8",
		Title: "Issue width — 4-way vs 2-way",
		Table: t,
		Chart: stats.Bars("2-way IPC relative to 4-way (%)", labels, deltas, "%"),
		Notes: []string{"expected: 2-way clearly slower everywhere; largest gap on high-hit-ratio SPECint"},
	}}, nil
}

// Fig09and10 reproduces the BHT geometry study: IPC and prediction
// failure rates for 16k-4w.2t vs 4k-2w.1t.
func Fig09and10(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	ipc := stats.NewTable("BHT geometry: IPC",
		"workload", "IPC 16k-4w.2t", "IPC 4k-2w.1t", "4k vs 16k %")
	fail := stats.NewTable("Branch prediction failures (mispredicts/branch)",
		"workload", "16k-4w.2t", "4k-2w.1t", "increase %")
	base := config.Base()
	profiles := workload.UPProfiles()
	reports, err := runJobs(ctx, crossJobs(profiles,
		[]config.Config{base, base.WithSmallBHT()}, opt), opt)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		rb, rs := reports[2*i], reports[2*i+1]
		ipc.AddRow(p.Name, rb.IPC(), rs.IPC(), stats.PercentDelta(rs.IPC(), rb.IPC()))
		fb, fs := rb.BranchFailureRate(), rs.BranchFailureRate()
		fail.AddRow(p.Name, fb, fs, stats.PercentDelta(fs, fb))
	}
	r9 := Result{ID: "Figure 9", Title: "Branch history table — latency vs size", Table: ipc,
		Notes: []string{"expected: SPEC ~indifferent (small table's 1-cycle access compensates);",
			"TPC-C loses ~5% IPC with the small table"}}
	r10 := Result{ID: "Figure 10", Title: "Branch prediction failures", Table: fail,
		Notes: []string{"expected: TPC-C failure rate ~60% greater on 4k-2w.1t; SPEC unchanged"}}
	return []Result{r9, r10}, nil
}

// Fig11to13 reproduces the L1 geometry study: IPC and I/D miss ratios for
// 128k-2w.4c vs 32k-1w.3c.
func Fig11to13(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	ipc := stats.NewTable("L1 geometry: IPC",
		"workload", "IPC 128k-2w.4c", "IPC 32k-1w.3c", "32k vs 128k %")
	imiss := stats.NewTable("L1 instruction cache miss ratio",
		"workload", "128k-2w", "32k-1w", "increase %")
	dmiss := stats.NewTable("L1 operand cache miss ratio",
		"workload", "128k-2w", "32k-1w", "increase %")
	base := config.Base()
	profiles := workload.UPProfiles()
	reports, err := runJobs(ctx, crossJobs(profiles,
		[]config.Config{base, base.WithSmallL1()}, opt), opt)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		rb, rs := reports[2*i], reports[2*i+1]
		ipc.AddRow(p.Name, rb.IPC(), rs.IPC(), stats.PercentDelta(rs.IPC(), rb.IPC()))
		imiss.AddRow(p.Name, rb.L1IMissRate(), rs.L1IMissRate(),
			stats.PercentDelta(rs.L1IMissRate(), rb.L1IMissRate()))
		dmiss.AddRow(p.Name, rb.L1DMissRate(), rs.L1DMissRate(),
			stats.PercentDelta(rs.L1DMissRate(), rb.L1DMissRate()))
	}
	r11 := Result{ID: "Figure 11", Title: "L1 cache — latency vs volume", Table: ipc,
		Notes: []string{"expected: small IPC loss overall (~2% on TPC-C); SPEC barely moves"}}
	r12 := Result{ID: "Figure 12", Title: "L1 instruction cache miss", Table: imiss,
		Notes: []string{"expected: TPC-C I-miss roughly doubles (+99% in the paper) on 32k-1w"}}
	r13 := Result{ID: "Figure 13", Title: "L1 operand cache miss", Table: dmiss,
		Notes: []string{"expected: TPC-C D-miss ~+64% on 32k-1w"}}
	return []Result{r11, r12, r13}, nil
}

// Fig14and15 reproduces the L2 study: on-chip 2MB 4-way vs off-chip 8MB
// 2-way and direct-mapped, including the TPC-C 16-processor SMP model.
func Fig14and15(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	ipc := stats.NewTable("L2 geometry: IPC relative to on.2m-4w (%)",
		"workload", "off.8m-2w %", "off.8m-1w %")
	miss := stats.NewTable("L2 cache miss ratio (demand)",
		"workload", "on.2m-4w", "off.8m-2w", "off.8m-1w")
	configs := []config.Config{
		config.Base(),
		config.Base().WithOffChipL2(2),
		config.Base().WithOffChipL2(1),
	}
	profiles := workload.UPProfiles()
	jobs := crossJobs(profiles, configs, opt)
	// TPC-C (16P): the MP model rides in the same batch.
	p16 := workload.TPCC16P()
	o16 := mpOpt(opt)
	for _, cfg := range configs {
		jobs = append(jobs, core.Job{Config: cfg.WithCPUs(16), Profile: p16, Opt: o16})
	}
	reports, err := runJobs(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	addRows := func(name string, rs []system.Report) {
		ipc.AddRow(name, stats.PercentDelta(rs[1].IPC(), rs[0].IPC()),
			stats.PercentDelta(rs[2].IPC(), rs[0].IPC()))
		miss.AddRow(name, rs[0].L2DemandMissRate(), rs[1].L2DemandMissRate(),
			rs[2].L2DemandMissRate())
	}
	for i, p := range profiles {
		addRows(p.Name, reports[3*i:3*i+3])
	}
	addRows(p16.Name, reports[len(reports)-3:])

	r14 := Result{ID: "Figure 14", Title: "L2 cache — latency vs volume", Table: ipc,
		Notes: []string{"expected: off.8m-1w clearly loses on TPC-C (−12..−14%) despite 4x capacity;",
			"off.8m-2w roughly par or slightly ahead; reproduced: the −12..−16% TPC-C loss for",
			"off.8m-1w appears (code/data page conflicts in the direct-mapped array), off.8m-2w",
			"sits between it and on.2m-4w"}}
	r15 := Result{ID: "Figure 15", Title: "L2 cache miss", Table: miss,
		Notes: []string{"expected: 8MB cuts miss ratios; direct mapping gives conflicts back"}}
	return []Result{r14, r15}, nil
}

// Fig16and17 reproduces the hardware prefetch study.
func Fig16and17(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	ipc := stats.NewTable("Hardware prefetch: IPC impact",
		"workload", "IPC with", "IPC without", "gain %")
	miss := stats.NewTable("L2 miss ratio under prefetch",
		"workload", "with", "with-Demand", "without")
	base := config.Base()
	profiles := workload.UPProfiles()
	reports, err := runJobs(ctx, crossJobs(profiles,
		[]config.Config{base, base.WithoutPrefetch()}, opt), opt)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		rw, ro := reports[2*i], reports[2*i+1]
		ipc.AddRow(p.Name, rw.IPC(), ro.IPC(), stats.PercentDelta(rw.IPC(), ro.IPC()))
		miss.AddRow(p.Name, rw.L2TotalMissRate(), rw.L2DemandMissRate(), ro.L2DemandMissRate())
	}
	r16 := Result{ID: "Figure 16", Title: "Hardware prefetching impact", Table: ipc,
		Notes: []string{"expected: SPECfp gains most (>13% in the paper; chain/stream access patterns);",
			"reproduced: same ordering with larger magnitudes (the 64-entry window exposes",
			"more of the un-prefetched miss latency than the paper's testbed)"}}
	r17 := Result{ID: "Figure 17", Title: "Hardware prefetching — L2 cache miss", Table: miss,
		Notes: []string{"expected: with-Demand < without (fewer demand misses);",
			"with > with-Demand exposes unnecessary prefetch traffic"}}
	return []Result{r16, r17}, nil
}

// Fig18 reproduces the reservation-station topology study: fused 1RS
// (up to two dispatches) vs the adopted 2RS.
func Fig18(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Reservation stations: 2RS relative to 1RS",
		"workload", "IPC 1RS", "IPC 2RS", "2RS vs 1RS %")
	profiles := workload.UPProfiles()
	reports, err := runJobs(ctx, crossJobs(profiles,
		[]config.Config{config.Base().WithOneRS(), config.Base()}, opt), opt)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		r1, r2 := reports[2*i], reports[2*i+1]
		t.AddRow(p.Name, r1.IPC(), r2.IPC(), stats.PercentDelta(r2.IPC(), r1.IPC()))
	}
	return []Result{{ID: "Figure 18", Title: "Reservation station — 1RS vs 2RS", Table: t,
		Notes: []string{"expected: 2RS slightly slower (the paper accepts the small loss for simpler dispatch);",
			"reproduced: integer/OLTP ≈ −1% as in the paper; our FP loss is larger (station",
			"capacity pooling matters more under this model's FP chains)"}}}, nil
}

// Fig19 reproduces the model-accuracy study: version estimates relative
// to the final model, and errors against the physical-machine proxy.
// The two workloads' fidelity ladders run concurrently; each ladder's nine
// simulations are themselves scheduled (verif.RunAccuracyStudyContext).
func Fig19(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Performance model accuracy (SPEC CPU2000 workloads)",
		"version", "detail", "int2000 perf/v8", "int2000 err vs machine %", "fp2000 perf/v8", "fp2000 err vs machine %")
	var si, sf verif.AccuracyStudy
	err := sched.DoCtx(ctx, sched.Options{Workers: opt.Workers},
		func(ctx context.Context) (err error) {
			si, err = verif.RunAccuracyStudyContext(ctx, config.Base(), workload.SPECint2000(), opt)
			return
		},
		func(ctx context.Context) (err error) {
			sf, err = verif.RunAccuracyStudyContext(ctx, config.Base(), workload.SPECfp2000(), opt)
			return
		},
	)
	if err != nil {
		return nil, err
	}
	for i := range si.Points {
		pi, pf := si.Points[i], sf.Points[i]
		t.AddRow(pi.Name, pi.Detail, pi.RatioToFinal, 100*pi.ErrorVsMachine,
			pf.RatioToFinal, 100*pf.ErrorVsMachine)
	}
	return []Result{{ID: "Figure 19", Title: "Performance model accuracy", Table: t,
		Notes: []string{
			fmt.Sprintf("final error: SPECint2000 %.1f%%, SPECfp2000 %.1f%% (paper: 4.2%% / 3.9%%)",
				100*si.FinalError(), 100*sf.FinalError()),
			"expected: estimates decrease with fidelity except the v5 bump (special instructions)",
		}}}, nil
}

// Study is one named entry of the full sweep. The name labels the study in
// cancellation markers (where its Results never arrived) and, slugified,
// addresses the study on the experiment service (GET /v1/studies/{slug}).
type Study struct {
	// Name is the presentation name ("Table 1", "Figures 9-10", ...).
	Name string
	// Run executes the study's simulations.
	Run func(context.Context, core.RunOptions) ([]Result, error)
}

// Slug returns the study's URL-safe identifier: lower-cased, spaces
// replaced by dashes ("Figures 9-10" -> "figures-9-10").
func (s Study) Slug() string {
	return strings.ReplaceAll(strings.ToLower(s.Name), " ", "-")
}

// Studies returns every experiment of the full sweep in presentation
// order. The registry is shared by cmd/sweep (AllContext) and the
// experiment service (internal/server), so a study is addressable the same
// way everywhere.
func Studies() []Study {
	return []Study{
		{"Table 1", func(context.Context, core.RunOptions) ([]Result, error) {
			return []Result{Table1()}, nil
		}},
		{"Figure 7", Fig07},
		{"Figure 8", Fig08},
		{"Figures 9-10", Fig09and10},
		{"Figures 11-13", Fig11to13},
		{"Figures 14-15", Fig14and15},
		{"Figures 16-17", Fig16and17},
		{"Figure 18", Fig18},
		{"Figure 19", Fig19},
		{"Extension", HPCStudy},
		{"Sampling", SampledStudy},
		{"Section 2.1", ModelSpeed},
		{"Estimator", AnalyticStudy},
		{"Litmus", LitmusStudy},
	}
}

// incompleteResult marks a study whose results never arrived — cancelled
// mid-run, or failed — so a partial sweep still renders every slot.
func incompleteResult(name string, err error) Result {
	t := stats.NewTable("", "status")
	t.AddRow(fmt.Sprintf("not completed: %v", err))
	return Result{ID: name, Title: "(incomplete)", Table: t,
		Notes: []string{"study did not complete; see status above"}}
}

// AllContext runs every experiment in presentation order: the studies
// execute concurrently on the scheduler (each study also schedules its own
// runs), and results come back in the fixed presentation order with
// per-study wall time stamped into Result.Elapsed. On cancellation (or a
// study failure) it still returns every completed study's results, with
// an incompleteResult marker in each missing study's slot, alongside the
// lowest-index study error — so a sweep interrupted by a deadline or
// SIGINT renders everything it finished.
func AllContext(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	all := Studies()
	groups, errs := sched.MapAllCtx(ctx, len(all), sched.Options{Workers: opt.Workers},
		func(ctx context.Context, i int) ([]Result, error) {
			start := timeNow()
			rs, err := all[i].Run(ctx, opt)
			elapsed := timeNow().Sub(start)
			for j := range rs {
				rs[j].Elapsed = elapsed
			}
			return rs, err
		})
	var out []Result
	var firstErr error
	for i, g := range groups {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			out = append(out, incompleteResult(all[i].Name, errs[i]))
			continue
		}
		out = append(out, g...)
	}
	return out, firstErr
}

// HPCStudy is an extension experiment (not a paper figure): it quantifies
// the dual floating-point multiply-add units the paper highlights as the
// machine's HPC feature, on a dense FMA kernel.
func HPCStudy(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Dual multiply-add units on a dense FP kernel",
		"configuration", "IPC", "vs base %")
	kernel := workload.HPC()
	variants := []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"base (2x FL, 4-issue)", nil},
		{"1x FL unit", func(c *config.Config) { c.CPU.FPUnits = 1 }},
		{"2-issue", func(c *config.Config) { *c = c.WithIssueWidth(2) }},
		{"no speculative dispatch", func(c *config.Config) { c.CPU.SpeculativeDispatch = false }},
		{"no data forwarding", func(c *config.Config) { c.CPU.DataForwarding = false }},
	}
	jobs := make([]core.Job, len(variants))
	for i, v := range variants {
		cfg := config.Base()
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		jobs[i] = core.Job{Config: cfg, Profile: kernel, Opt: opt}
	}
	reports, err := runJobs(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	base := reports[0].IPC()
	for i, v := range variants {
		t.AddRow(v.name, reports[i].IPC(), stats.PercentDelta(reports[i].IPC(), base))
	}
	return []Result{{ID: "Extension", Title: "HPC: dual multiply-add units", Table: t,
		Notes: []string{"the paper: \"having two sets of floating-point multiply-add execution",
			"units is effective for HPC performance\" — quantified here"}}}, nil
}

// sampledStudySchedule is the validation schedule for a trace of n
// instructions: ~40 intervals with a 2k detailed warm-up and a measurement
// window of interval/5, clamped for short traces. The window count and the
// measure fraction are sized for SPECfp95, whose long-latency phases give
// the per-window CPI the widest spread of the standard workloads; with
// fewer or shorter windows its estimate drifts past 5%.
func sampledStudySchedule(n int) config.Sampling {
	s := config.Sampling{IntervalInsts: n / 40, WarmupInsts: 2_000}
	if s.IntervalInsts < 10_000 {
		s.IntervalInsts = 10_000
	}
	s.MeasureInsts = s.IntervalInsts / 5
	if s.MeasureInsts < 2_000 {
		s.MeasureInsts = 2_000
	}
	return s
}

// SampledStudy validates sampled simulation (internal/core/sample.go)
// against the full model: every uniprocessor workload runs both ways and
// the table reports the CPI agreement, the per-run window count, and the
// fraction of instructions that ran on the detailed model. The rendered
// numbers are all deterministic — wall-clock speedups are measured by the
// benchmark suite (BenchmarkSampledRun), not here, so EXPERIMENTS.md stays
// byte-identical across hosts.
func SampledStudy(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	opt.Sample = config.Sampling{} // the comparison baseline is always a full run
	sc := sampledStudySchedule(opt.Insts)
	t := stats.NewTable(fmt.Sprintf("Sampled vs full simulation (%s)", sc),
		"workload", "full CPI", "sampled CPI", "err %", "windows", "detailed %")
	sampOpt := opt
	sampOpt.Sample = sc
	profiles := workload.UPProfiles()
	jobs := make([]core.Job, 0, 2*len(profiles))
	for _, p := range profiles {
		jobs = append(jobs, core.Job{Config: config.Base(), Profile: p, Opt: opt},
			core.Job{Config: config.Base(), Profile: p, Opt: sampOpt})
	}
	reports, err := runJobs(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		full, samp := reports[2*i], reports[2*i+1]
		fullCPI, sampCPI := 1/full.IPC(), 1/samp.IPC()
		windows, detailed := 0, 0.0
		if s := samp.Sampling; s != nil {
			windows = s.Windows
			detailed = 100 * float64(s.DetailedInsts) / float64(s.DetailedInsts+s.FastForwarded)
		}
		t.AddRow(p.Name, fullCPI, sampCPI,
			stats.PercentDelta(sampCPI, fullCPI), windows, detailed)
	}
	return []Result{{ID: "Sampling", Title: "Sampled simulation validation", Table: t,
		Notes: []string{"sampled runs fast-forward between detailed measurement windows (SMARTS-style);",
			"CPI agreement within a few percent at a fraction of the detailed instructions —",
			"wall-clock speedup is measured by BenchmarkSampledRun (see DESIGN.md)"}}}, nil
}

// ModelSpeed is the modern counterpart of the paper's "7.8K instructions
// per second on a 1-GHz Pentium III" quote for their C model.
//
// A wall-clock rate is a property of the measuring host, so rendering it
// here would make every regenerated EXPERIMENTS.md differ; instead the
// table reports the deterministic side of the same calibration — the
// cycle counts the model computes for a fixed 200k-instruction trace of
// each workload — and cmd/sweep prints the measured effective
// sim-instrs/s on stderr. The runs go through runJobs with opt's Workers,
// Cache and Obs like every other study, so a warm-cache sweep serves them
// without simulating and a profiled sweep records them. The first run
// error (a cancellation, say) fails the study, so a cut sweep marks it
// incomplete instead of rendering a short table.
func ModelSpeed(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	t := stats.NewTable("Model calibration (200k-instr runs, base configuration)",
		"workload", "instructions", "simulated cycles")
	// A fixed length on the default seed with sampling off: the table is
	// the model's calibration point, not a function of the sweep options.
	o := core.RunOptions{Insts: 200_000, Workers: opt.Workers, Cache: opt.Cache, Obs: opt.Obs}
	profiles := workload.UPProfiles()
	reps, err := runJobs(ctx, crossJobs(profiles, []config.Config{config.Base()}, o), o)
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		t.AddRow(p.Name, reps[i].Committed, reps[i].MeasuredCycles())
	}
	return []Result{{ID: "Section 2.1", Title: "Model speed", Table: t,
		Notes: []string{"the paper's model ran at 7.8K instr/s on a 1-GHz Pentium III; " +
			"this host's measured rate is cmd/sweep's \"effective sim-instrs/s\" stderr line"}}}, nil
}

// timeNow is indirected for tests.
var timeNow = time.Now
