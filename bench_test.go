package sparc64v

import (
	"context"
	"testing"

	"sparc64v/internal/core"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// One benchmark per table/figure of the paper's evaluation. Each iteration
// regenerates the artifact at a reduced trace length; cmd/sweep produces
// the full-length numbers recorded in EXPERIMENTS.md.

// benchOpt keeps per-iteration cost moderate.
func benchOpt() RunOptions { return RunOptions{Insts: 60_000} }

// workloadHPC aliases the HPC profile (not part of the paper's five).
func workloadHPC() Profile { return workload.HPC() }

func BenchmarkTable1Base(b *testing.B) {
	b.ReportAllocs()
	// The base-machine run behind Table 1's configuration: simulate the
	// Table 1 machine on TPC-C and report simulated instructions/second —
	// the modern counterpart of the paper's "7.8K instructions per second
	// on a 1GHz Pentium III" model-speed quote.
	m, err := NewModel(BaseConfig())
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOpt()
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.RunContext(context.Background(), TPCC(), opt)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(r.Committed)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkFig07Breakdown(b *testing.B) {
	b.ReportAllocs()
	m, _ := NewModel(BaseConfig())
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := m.BreakdownContext(context.Background(), TPCC(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08IssueWidth(b *testing.B) {
	benchExperiment(b, "Figure 8")
}

func BenchmarkFig09BHT(b *testing.B) {
	benchExperiment(b, "Figures 9-10")
}

func BenchmarkFig11L1(b *testing.B) {
	benchExperiment(b, "Figures 11-13")
}

func BenchmarkFig14L2(b *testing.B) {
	benchExperiment(b, "Figures 14-15")
}

func BenchmarkFig16Prefetch(b *testing.B) {
	benchExperiment(b, "Figures 16-17")
}

func BenchmarkFig18RS(b *testing.B) {
	benchExperiment(b, "Figure 18")
}

func BenchmarkFig19Accuracy(b *testing.B) {
	benchExperiment(b, "Figure 19")
}

// benchExperiment runs the named study of Experiments() once per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for _, e := range Experiments() {
		if e.Name != name {
			continue
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), benchOpt()); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("no experiment %q", name)
}

// Ablation benches for the design choices DESIGN.md calls out.

func benchConfig(b *testing.B, cfg Config, p Profile) {
	b.Helper()
	b.ReportAllocs()
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunContext(context.Background(), p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSpeculativeDispatchOff(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.CPU.SpeculativeDispatch = false
	benchConfig(b, cfg, SPECint95())
}

func BenchmarkAblationDataForwardingOff(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.CPU.DataForwarding = false
	benchConfig(b, cfg, SPECint95())
}

func BenchmarkAblationBlockingL1(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.L1D.MSHRs = 1
	benchConfig(b, cfg, TPCC())
}

func BenchmarkAblationFlatMemory(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.Fidelity.FlatMemory = true
	cfg.Fidelity.FlatMemoryCycles = 22
	benchConfig(b, cfg, TPCC())
}

func BenchmarkAblationSingleBankL1(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.L1D.Banks = 1
	benchConfig(b, cfg, SPECint95())
}

// Raw component benches.

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	g := workload.New(workload.TPCC(), 1, 0)
	var r trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&r)
	}
}

func BenchmarkSimulatorSpeed(b *testing.B) {
	b.ReportAllocs()
	// Simulated instructions per wall-clock second on SPECint95.
	m, _ := NewModel(BaseConfig())
	opt := core.RunOptions{Insts: 100_000}
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.RunContext(context.Background(), SPECint95(), opt)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(r.Committed)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkSchedulerSweep(b *testing.B) {
	// A batch of independent runs through the sched worker pool — the shape
	// every expt study and cmd/sweep reduce to. Reports aggregate simulated
	// instructions per wall-clock second at the default worker count.
	b.ReportAllocs()
	m, _ := NewModel(BaseConfig())
	profiles := []Profile{SPECint95(), SPECfp95(), SPECint2000(), SPECfp2000(), TPCC()}
	opt := core.RunOptions{Insts: 60_000}
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := sched.MapCtx(context.Background(), len(profiles), sched.Options{Workers: opt.Workers},
			func(ctx context.Context, j int) (system.Report, error) { return m.RunContext(ctx, profiles[j], opt) })
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			total += int64(r.Committed)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkAblationStoreForwardingOff(b *testing.B) {
	b.ReportAllocs()
	cfg := BaseConfig()
	cfg.CPU.StoreForwarding = false
	benchConfig(b, cfg, TPCC())
}

func BenchmarkAblationSingleFMAUnit(b *testing.B) {
	b.ReportAllocs()
	// The paper: "Having two sets of floating-point multiply-add execution
	// units is effective for HPC performance." This ablation halves them.
	cfg := BaseConfig()
	cfg.CPU.FPUnits = 1
	benchConfig(b, cfg, workloadHPC())
}
