// Command accuracy runs the paper's model-verification workflow (sections
// 2 and 5) end to end:
//
//  1. the fidelity ladder v1..v8 against the final model and the
//     physical-machine proxy (Figure 19),
//  2. trend agreement between the detailed model and the independent
//     in-order reference model (the initial-model validation), and
//  3. a reverse-tracer round trip: trace -> test program -> replay, with a
//     cycle-exact model comparison (the logic-simulator cross-check).
//
// Example:
//
//	accuracy -workload specint2000 -insts 300000
//
// With -cache-dir the profile-based simulations go through the
// content-addressed run cache (internal/runcache), so re-running the
// workflow after an interruption or on a warm cache skips the ladder and
// trend runs that already completed. The reverse-tracer section replays
// explicit traces and always simulates.
//
// Run lifecycle: -timeout bounds the whole workflow and SIGINT (Ctrl-C) or SIGTERM
// cancels it cooperatively; sections that already printed stand, the
// section in flight reports the cancellation, and the process exits
// non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/stats"
	"sparc64v/internal/trace"
	"sparc64v/internal/verif"
	"sparc64v/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "specint2000", "workload: "+strings.Join(workload.Names(), "|"))
		insts        = flag.Int("insts", 300_000, "instructions per run")
		seed         = flag.Int64("seed", 42, "workload seed")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "abort the workflow after this long (0 = no limit)")
		cacheDir     = flag.String("cache-dir", "", "content-addressed run cache directory (empty = no cache)")
		profile      = flag.String("profile", "", "write a JSON timing+counter profile of every run to this file")
		sample       = flag.String("sample", "", "sampled simulation for the ladder and trend runs: off|auto|interval=N,warmup=N,measure=N[,offset=N]")
	)
	flag.Parse()
	prof, ok := workload.ByName(*workloadName)
	if !ok {
		fatal("unknown workload %q (have %v)", *workloadName, workload.Names())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := core.RunOptions{Insts: *insts, Seed: *seed, Workers: *workers}
	// Sampling accelerates the ladder and trend sections; the reverse-tracer
	// round trip below is a cycle-exact comparison and always runs full.
	var sampErr error
	if opt.Sample, sampErr = config.ParseSampling(*sample, *insts); sampErr != nil {
		fatal("%v", sampErr)
	}
	if *profile != "" {
		opt.Obs = obs.NewCollector()
	}
	if *cacheDir != "" {
		cache, err := runcache.New(runcache.Options{Dir: *cacheDir})
		if err != nil {
			fatal("%v", err)
		}
		opt.Cache = cache
	}
	base := config.Base()

	// 1. Fidelity ladder.
	study, err := verif.RunAccuracyStudyContext(ctx, base, prof, opt)
	if err != nil {
		fatalCtx(err)
	}
	t := stats.NewTable(fmt.Sprintf("Model versions on %s (machine proxy IPC %.3f)",
		prof.Name, study.MachineIPC),
		"version", "detail", "IPC", "perf/v8", "err vs machine %")
	// The analytic estimator sits below the ladder as a simulation-free v0
	// rung; a workload outside the calibration set simply omits it.
	if cal, calErr := analytic.Default(); calErr == nil {
		if v0, rungErr := verif.AnalyticRung(cal, base, &study); rungErr == nil {
			t.AddRow(v0.Name, v0.Detail, v0.IPC, v0.RatioToFinal, 100*v0.ErrorVsMachine)
		}
	}
	for _, p := range study.Points {
		t.AddRow(p.Name, p.Detail, p.IPC, p.RatioToFinal, 100*p.ErrorVsMachine)
	}
	fmt.Print(t.String())
	fmt.Printf("final model error: %.2f%% (paper achieved <5%%)\n\n", 100*study.FinalError())

	// 2. Trend checks against the independent reference model.
	fmt.Println("Trend agreement (detailed model vs independent in-order reference):")
	for _, c := range []struct {
		name    string
		variant config.Config
	}{
		{"32k-1w.3c L1", base.WithSmallL1()},
		{"off.8m-1w L2", base.WithOffChipL2(1)},
		{"4k-2w.1t BHT", base.WithSmallBHT()},
	} {
		tc, err := verif.RunTrendCheckContext(ctx, c.name, base, c.variant, prof, opt)
		if err != nil {
			fatalCtx(err)
		}
		verdict := "AGREE"
		if !tc.Agree() {
			verdict = "DISAGREE"
		}
		fmt.Printf("  %-14s model %+6.2f%%  reference %+6.2f%%  -> %s\n",
			c.name, 100*tc.ModelDelta, 100*tc.ReferenceDelta, verdict)
	}
	fmt.Println()

	// 3. Reverse-tracer round trip with cycle-exact comparison.
	recs := trace.Collect(trace.NewLimitSource(workload.New(prof, *seed, 0), *insts), 0)
	prog, err := verif.FromTrace(trace.NewSliceSource(recs))
	if err != nil {
		fatal("reverse trace: %v", err)
	}
	m, err := core.NewModel(base)
	if err != nil {
		fatal("%v", err)
	}
	ro := core.RunOptions{Insts: len(recs), Seed: *seed, Warmup: 1, Obs: opt.Obs}
	r1, err := m.RunSourcesContext(ctx, "trace", []trace.Source{trace.NewSliceSource(recs)}, ro)
	if err != nil {
		fatalCtx(err)
	}
	r2, err := m.RunSourcesContext(ctx, "replay", []trace.Source{prog.Replay()}, ro)
	if err != nil {
		fatalCtx(err)
	}
	fmt.Printf("Reverse tracer: %d dynamic instrs -> %d static; trace %d cycles, replay %d cycles",
		prog.Len(), prog.StaticInstrs(), r1.Cycles, r2.Cycles)
	if *profile != "" {
		if err := opt.Obs.WriteProfileFile(*profile); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "accuracy: wrote run profiles to %s\n", *profile)
	}
	if r1.Cycles == r2.Cycles && r1.Committed == r2.Committed {
		fmt.Println("  [EXACT MATCH]")
	} else {
		fmt.Println("  [MISMATCH]")
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "accuracy: "+format+"\n", args...)
	os.Exit(1)
}

// fatalCtx distinguishes a cooperative cancellation (timeout or Ctrl-C)
// from a genuine failure; sections printed before the cancellation stand.
func fatalCtx(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fatal("timed out: %v (completed sections rendered above)", err)
	case errors.Is(err, context.Canceled):
		fatal("interrupted: %v (completed sections rendered above)", err)
	default:
		fatal("%v", err)
	}
}
