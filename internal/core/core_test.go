package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/stats"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

func testOpt() RunOptions { return RunOptions{Insts: 60_000} }

func TestNewModelValidates(t *testing.T) {
	bad := config.Base()
	bad.CPUs = 0
	if _, err := NewModel(bad); err == nil {
		t.Fatal("NewModel accepted invalid config")
	}
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().Name != "sparc64v.base" {
		t.Errorf("Config().Name = %q", m.Config().Name)
	}
}

func TestRunDefaults(t *testing.T) {
	m, _ := NewModel(config.Base())
	r, err := m.RunContext(context.Background(), workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 || r.HitCap {
		t.Fatalf("bad report: %+v", r)
	}
	if r.Workload != "SPECint95" {
		t.Errorf("Workload = %q", r.Workload)
	}
}

func TestRunSourcesMismatch(t *testing.T) {
	m, _ := NewModel(config.Base().WithCPUs(2))
	_, err := m.RunSourcesContext(context.Background(), "x", []trace.Source{workload.New(workload.SPECint95(), 1, 0)}, testOpt())
	if err == nil {
		t.Fatal("RunSources accepted wrong source count")
	}
}

func TestBreakdownSharesSane(t *testing.T) {
	m, _ := NewModel(config.Base())
	br, err := m.BreakdownContext(context.Background(), workload.SPECint95(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	b := br.Breakdown
	if b.Core <= 0 || b.Sum() < 0.9 || b.Sum() > 1.1 {
		t.Fatalf("breakdown malformed: %+v (sum=%v)", b, b.Sum())
	}
	// Perfect-ization must be monotone in cycles.
	if !(br.Base.MeasuredCycles() >= br.PerfectL2.MeasuredCycles() &&
		br.PerfectL2.MeasuredCycles() >= br.PerfectL1.MeasuredCycles() &&
		br.PerfectL1.MeasuredCycles() >= br.PerfectAll.MeasuredCycles()) {
		t.Fatalf("perfect ladder not monotone: %d %d %d %d",
			br.Base.MeasuredCycles(), br.PerfectL2.MeasuredCycles(),
			br.PerfectL1.MeasuredCycles(), br.PerfectAll.MeasuredCycles())
	}
}

// The headline workload contrasts of Figure 7 must hold: TPC-C is
// dominated by L2-miss (sx) stalls; SPECfp95 by core execution; SPECint95
// spends far more on branches than SPECfp95.
func TestBreakdownWorkloadContrasts(t *testing.T) {
	m, _ := NewModel(config.Base())
	opt := RunOptions{Insts: 120_000}
	tpcc, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := m.BreakdownContext(context.Background(), workload.SPECfp95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ints, err := m.BreakdownContext(context.Background(), workload.SPECint95(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if tpcc.Breakdown.SX < 0.25 {
		t.Errorf("TPC-C sx share %.2f too small", tpcc.Breakdown.SX)
	}
	if tpcc.Breakdown.SX <= ints.Breakdown.SX || tpcc.Breakdown.SX <= fp.Breakdown.SX {
		t.Error("TPC-C sx share not the largest")
	}
	if fp.Breakdown.Core < 0.55 {
		t.Errorf("SPECfp95 core share %.2f too small", fp.Breakdown.Core)
	}
	if ints.Breakdown.Branch < 3*fp.Breakdown.Branch {
		t.Errorf("SPECint95 branch share %.2f not ≫ SPECfp95 %.2f",
			ints.Breakdown.Branch, fp.Breakdown.Branch)
	}
}

func TestVersionsLadder(t *testing.T) {
	vs := Versions()
	if len(vs) != 8 {
		t.Fatalf("got %d versions", len(vs))
	}
	for i, v := range vs {
		if !strings.HasPrefix(v.Name, "v") || v.Detail == "" {
			t.Errorf("version %d malformed: %+v", i, v)
		}
		cfg := v.Apply(config.Base())
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", v.Name, err)
		}
	}
	// v1 is flat-memory; v8 is full fidelity.
	if !vs[0].Apply(config.Base()).Fidelity.FlatMemory {
		t.Error("v1 not flat memory")
	}
	v8 := vs[7].Apply(config.Base())
	if v8.Fidelity != config.FullFidelity() || !v8.CPU.SpecialDetailed {
		t.Error("v8 not full fidelity")
	}
	// v5 switches special-instruction modeling on.
	if vs[4].Apply(config.Base()).CPU.SpecialDetailed != true ||
		vs[3].Apply(config.Base()).CPU.SpecialDetailed != false {
		t.Error("v5 boundary wrong")
	}
}

// The ladder's defining property: estimates tighten (cycles grow) with
// fidelity, except the v5 correction which removes pessimism.
func TestVersionEstimatesTrend(t *testing.T) {
	opt := RunOptions{Insts: 80_000, Seed: 7}
	var cycles []uint64
	for _, v := range Versions() {
		m, err := NewModel(v.Apply(config.Base()))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunContext(context.Background(), workload.SPECint2000(), opt)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		cycles = append(cycles, r.MeasuredCycles())
	}
	// v1 (flat, idealized) must estimate the highest performance.
	for i := 1; i < len(cycles); i++ {
		if cycles[0] > cycles[i] {
			t.Errorf("v1 cycles %d above v%d cycles %d", cycles[0], i+1, cycles[i])
		}
	}
	// v5 must run faster than v4 (pessimistic special penalty removed).
	if cycles[4] >= cycles[3] {
		t.Errorf("v5 cycles %d not below v4 %d", cycles[4], cycles[3])
	}
	// v8 (final) must be the slowest or near it.
	if cycles[7] < cycles[1] {
		t.Errorf("v8 cycles %d below v2 %d", cycles[7], cycles[1])
	}
}

// seedJobs returns n jobs running p on cfg over consecutive seeds from
// opt.Seed: several trace samples of one configuration, the analogue of
// the paper sampling multiple windows of its TPC-C traces.
func seedJobs(cfg config.Config, p workload.Profile, opt RunOptions, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		o := opt
		o.Seed += int64(i)
		jobs[i] = Job{Config: cfg, Profile: p, Opt: o}
	}
	return jobs
}

// TestRunMany: different seeds produce different samples (non-zero
// spread), but the workload is statistically stable (spread well under
// the mean).
func TestRunMany(t *testing.T) {
	opt := RunOptions{Insts: 30_000, Seed: 5}
	reports, errs := RunJobs(context.Background(), seedJobs(config.Base(), workload.SPECint95(), opt, 3), opt)
	if err := firstErr(errs); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports: %d", len(reports))
	}
	ipcs := make([]float64, len(reports))
	for i, r := range reports {
		ipcs[i] = r.IPC()
	}
	mean := stats.Mean(ipcs)
	if mean <= 0 {
		t.Fatal("mean IPC not positive")
	}
	var ss float64
	for _, x := range ipcs {
		ss += (x - mean) * (x - mean)
	}
	if std := math.Sqrt(ss / float64(len(ipcs)-1)); std <= 0 || std > mean/4 {
		t.Errorf("IPC spread %.4f implausible for mean %.3f", std, mean)
	}
}

// TestRunContextCancelPrompt is the model-level half of the run-lifecycle
// contract: cancelling mid-run surfaces ctx.Err() (wrapped) promptly
// instead of simulating to completion.
func TestRunContextCancelPrompt(t *testing.T) {
	m, _ := NewModel(config.Base())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// A run long enough that completion inside the test timeout would be
	// implausible on any host.
	_, err := m.RunContext(ctx, workload.SPECint95(), RunOptions{Insts: 200_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want wrapped context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestRunManyContextCancelled verifies the scheduled seed fan-out stops
// handing out seeds once the context fires.
func TestRunManyContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := RunOptions{Insts: 40_000, Workers: 2}
	_, errs := RunJobs(ctx, seedJobs(config.Base(), workload.SPECint95(), opt, 6), opt)
	if err := firstErr(errs); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs err = %v", err)
	}
}

// TestBreakdownContextMatchesBreakdown guards the study's fan-out: when
// the context never fires, BreakdownContext must equal the breakdown
// assembled from the four BreakdownConfigs runs made one by one.
func TestBreakdownContextMatchesBreakdown(t *testing.T) {
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	a, err := m.BreakdownContext(context.Background(), p, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	var reports []system.Report
	for _, cfg := range BreakdownConfigs(config.Base()) {
		sub, _ := NewModel(cfg)
		r, err := sub.RunContext(context.Background(), p, testOpt())
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	if b := AssembleBreakdown(p.Name, reports); a.Breakdown != b.Breakdown {
		t.Fatalf("BreakdownContext %+v vs one-by-one %+v", a.Breakdown, b.Breakdown)
	}
}

// TestRunSourcesMatchesBareSystem keeps a reference outside the run
// engine: a full report from RunSourcesContext must be byte-identical to a
// bare system.New → System.RunContext → System.Report over the same traces,
// with the run's warm-up applied, on one UP and one 4-CPU machine.
func TestRunSourcesMatchesBareSystem(t *testing.T) {
	for _, c := range []struct {
		cfg config.Config
		p   workload.Profile
	}{
		{config.Base(), workload.SPECint95()},
		{config.Base().WithCPUs(4), workload.TPCC16P()},
	} {
		opt := RunOptions{Insts: 15_000}
		opt.defaults()
		traces := func() []trace.Source {
			var srcs []trace.Source
			for _, g := range workload.NewMP(c.p, opt.Seed, c.cfg.CPUs) {
				srcs = append(srcs, trace.NewLimitSource(g, opt.Insts))
			}
			return srcs
		}
		m, _ := NewModel(c.cfg)
		got, err := m.RunSourcesContext(context.Background(), c.p.Name, traces(), opt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.WarmupInsts = opt.Warmup
		sys, err := system.New(cfg, traces())
		if err != nil {
			t.Fatal(err)
		}
		_, capped, err := sys.RunContext(context.Background(), opt.maxCycles())
		if err != nil {
			t.Fatal(err)
		}
		want := sys.Report(c.p.Name)
		want.HitCap = capped
		if reportBytes(t, got) != reportBytes(t, want) {
			t.Errorf("%d-CPU %s: RunSourcesContext report differs from the bare system run", c.cfg.CPUs, c.p.Name)
		}
	}
}
