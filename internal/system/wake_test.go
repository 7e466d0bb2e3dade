package system

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// refStep is the cycle loop without sleeping: every CPU ticks every cycle
// and the clock never jumps. Ticking a sleeping CPU is exact, so this is
// the reference the event-driven Step must match bit for bit.
func refStep(s *System, n int, maxCycles uint64) (done, capped bool) {
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	for ; n > 0; n-- {
		if s.cycle >= maxCycles {
			return false, true
		}
		if s.Done() {
			return true, false
		}
		for _, c := range s.cpus {
			c.Tick(s.cycle)
		}
		s.cycle++
	}
	if s.cycle >= maxCycles {
		return false, true
	}
	return s.Done(), false
}

// wakeCap bounds every run here, so a CPU that sleeps through its wake-up
// fails a test instead of hanging it.
const wakeCap = 20_000_000

type stepFunc func(s *System, n int, maxCycles uint64) (done, capped bool)

func reportJSON(t *testing.T, s *System) string {
	t.Helper()
	b, err := json.Marshal(s.Report("wake"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// commitDigest folds every committed instruction's pipeline timestamps on
// every CPU of a machine into one FNV-1a word, a finer witness than the
// Report's counters.
type commitDigest uint64

func traceDigest(s *System) *commitDigest {
	d := commitDigest(14695981039346656037)
	for _, c := range s.cpus {
		c.SetPipeTracer(func(e *cpu.PipeEvent) {
			for _, v := range [...]uint64{e.Seq, e.PC, uint64(e.Op), e.EA, e.Fetch, e.Issue,
				e.Dispatch, e.Complete, e.Commit, uint64(e.Cancels)} {
				d = (d ^ commitDigest(v)) * 1099511628211
			}
			if e.Mispredict {
				d = (d ^ 1) * 1099511628211
			}
		})
	}
	return &d
}

// lockstepCompare steps the event-driven machine and the reference in the
// same chunks and requires byte-identical Reports, and identical commit
// timestamps, at every boundary. Chunks cycle through odd sizes so
// boundaries land inside sleeps.
func lockstepCompare(t *testing.T, ev, ref *System, maxCycles uint64) (done, capped bool) {
	t.Helper()
	evTrace, refTrace := traceDigest(ev), traceDigest(ref)
	chunks := []int{1, 7, 64, 333, PollStride}
	for i := 0; ; i++ {
		n := chunks[i%len(chunks)]
		d1, c1 := ev.Step(n, maxCycles)
		d2, c2 := refStep(ref, n, maxCycles)
		if d1 != d2 || c1 != c2 {
			t.Fatalf("step %d: event (done=%v capped=%v) vs reference (done=%v capped=%v)", i, d1, c1, d2, c2)
		}
		if a, b := reportJSON(t, ev), reportJSON(t, ref); a != b {
			t.Fatalf("step %d (cycle %d): reports differ\nevent:     %s\nreference: %s", i, ev.cycle, a, b)
		}
		if *evTrace != *refTrace {
			t.Fatalf("step %d (cycle %d): commit timestamps differ", i, ev.cycle)
		}
		if d1 || c1 {
			return d1, c1
		}
	}
}

func wakeConfigs() []config.Config {
	base := config.Base()
	noSpec := base
	noSpec.CPU.SpeculativeDispatch = false
	noFwd := base
	noFwd.CPU.DataForwarding = false
	flat := base
	flat.Fidelity.FlatMemory = true
	flat.Fidelity.FlatMemoryCycles = 150
	// A window larger than 64 entries and not a power of two, with the
	// stations, queues and rename registers scaled to match.
	win96 := base
	win96.CPU.WindowSize = 96
	win96.CPU.IntRenameRegs, win96.CPU.FPRenameRegs = 48, 48
	win96.CPU.RSEEntries, win96.CPU.RSFEntries = 12, 12
	win96.CPU.RSAEntries, win96.CPU.RSBREntries = 15, 15
	win96.CPU.LoadQueueEntries, win96.CPU.StoreQueueEntries = 24, 15
	// Stations and a load queue so small that station-full and LQ-full
	// stalls, and the RSE0/RSE1 balance, fire constantly.
	tiny := base
	tiny.CPU.RSEEntries, tiny.CPU.RSAEntries = 2, 3
	tiny.CPU.LoadQueueEntries = 4
	return []config.Config{
		base,
		base.WithOneRS(),
		noSpec.WithName("nospec"),
		noFwd.WithName("nofwd"),
		base.WithIssueWidth(2),
		base.WithIssueWidth(6),
		base.WithSmallL1(),
		base.WithOffChipL2(4),
		base.WithoutPrefetch(),
		base.WithPerfect(config.Perfect{L2: true}).WithName("perfect-l2"),
		base.WithPerfect(config.Perfect{L2: true, L1: true, TLB: true}).WithName("perfect-mem"),
		base.WithPerfect(config.Perfect{L2: true, L1: true, TLB: true, Branch: true}).WithName("perfect-all"),
		base.WithFidelity(config.Fidelity{}, false).WithName("crude"),
		flat.WithName("flat"),
		win96.WithName("win96"),
		tiny.WithName("tiny-rs"),
	}
}

// wakeWorkload is one of the differential tests' traces: a profile run on
// cpus processors.
type wakeWorkload struct {
	p    workload.Profile
	cpus int
}

func wakeWorkloads() []wakeWorkload {
	return []wakeWorkload{
		{workload.SPECint95(), 1},
		{workload.SPECfp2000(), 1},
		{workload.TPCC(), 1},
		{workload.TPCC16P(), 4},
	}
}

// recordTraces generates w's per-CPU traces once (they do not depend on
// the configuration) and returns a function that replays them afresh.
func recordTraces(w wakeWorkload, insts int) func() []trace.Source {
	recs := make([][]trace.Record, w.cpus)
	for i, src := range sources(w.p, w.cpus, insts) {
		var r trace.Record
		for src.Next(&r) {
			recs[i] = append(recs[i], r)
		}
	}
	return func() []trace.Source {
		out := make([]trace.Source, w.cpus)
		for i := range out {
			out[i] = trace.NewSliceSource(recs[i])
		}
		return out
	}
}

// TestStepMatchesEveryCycleReference is the event-driven core's
// differential test: across the design-space configurations and the UP
// and SMP workloads, sleeping CPUs and clock jumps must leave every Report
// at every Step boundary byte-identical to ticking every CPU every cycle.
func TestStepMatchesEveryCycleReference(t *testing.T) {
	insts := 12_000
	if testing.Short() {
		insts = 4_000
	}
	for _, w := range wakeWorkloads() {
		replay := recordTraces(w, insts)
		for _, cfg := range wakeConfigs() {
			cfg := cfg.WithCPUs(w.cpus)
			cfg.WarmupInsts = uint64(insts / 4)
			t.Run(cfg.Name+"/"+w.p.Name, func(t *testing.T) {
				ev, err := New(cfg, replay())
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := New(cfg, replay())
				if _, capped := lockstepCompare(t, ev, ref, wakeCap); capped {
					t.Fatal("hit the cycle cap")
				}
			})
		}
	}
}

// TestStepCapMatchesReference: a cap that lands while CPUs sleep must stop
// both loops at the same cycle with the same counters.
func TestStepCapMatchesReference(t *testing.T) {
	cfg := config.Base().WithCPUs(2)
	cfg.WarmupInsts = 0
	for _, maxCycles := range []uint64{1, 777, 5_001} {
		ev, _ := New(cfg, sources(workload.TPCC16P(), 2, 50_000))
		ref, _ := New(cfg, sources(workload.TPCC16P(), 2, 50_000))
		if _, capped := lockstepCompare(t, ev, ref, maxCycles); !capped {
			t.Fatalf("cap %d: run drained before its cap", maxCycles)
		}
		if ev.cycle != maxCycles {
			t.Errorf("cap %d: stopped at cycle %d", maxCycles, ev.cycle)
		}
	}
}

// TestCancelMatchesReference cancels a run mid-flight through RunContext
// (the event-driven loop) and through the reference loop polled the same
// way: both must stop at the same cycle with identical Reports.
func TestCancelMatchesReference(t *testing.T) {
	cfg := config.Base().WithCPUs(4)
	cfg.WarmupInsts = 1000
	run := func(step stepFunc, sys *System, ctx context.Context) error {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if done, capped := step(sys, PollStride, wakeCap); done || capped {
				return nil
			}
		}
	}
	var reports [2]string
	for i, step := range []stepFunc{(*System).Step, refStep} {
		ctx, cancel := context.WithCancel(context.Background())
		srcs := sources(workload.TPCC16P(), 4, 40_000)
		srcs[2] = &cancellingSource{src: srcs[2], n: 9_000, cancel: cancel}
		sys, err := New(cfg, srcs)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(step, sys, ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("loop %d: error %v, want context.Canceled", i, err)
		}
		cancel()
		reports[i] = reportJSON(t, sys)
	}
	if reports[0] != reports[1] {
		t.Errorf("cancelled reports differ\nevent:     %s\nreference: %s", reports[0], reports[1])
	}
}

// budgetSource serves at most budget records of src until refilled, the
// shape of the sampling driver's gate: a CPU drains between windows and is
// resumed with ResumeSource.
type budgetSource struct {
	src    trace.Source
	budget int
}

func (b *budgetSource) Next(r *trace.Record) bool {
	if b.budget <= 0 {
		return false
	}
	b.budget--
	return b.src.Next(r)
}

// TestSampledWindowsMatchReference drives windows the way sampled runs
// do: each CPU gets a record budget, the machine runs until every CPU
// drains, and ResumeSource restarts them. Done CPUs must never wake, and
// resumed ones must wake at once.
func TestSampledWindowsMatchReference(t *testing.T) {
	cfg := config.Base().WithCPUs(2)
	cfg.WarmupInsts = 0
	build := func() (*System, []*budgetSource) {
		gates := make([]*budgetSource, 2)
		srcs := make([]trace.Source, 2)
		for i, s := range sources(workload.TPCC16P(), 2, 1<<30) {
			gates[i] = &budgetSource{src: s}
			srcs[i] = gates[i]
		}
		sys, err := New(cfg, srcs)
		if err != nil {
			t.Fatal(err)
		}
		return sys, gates
	}
	ev, evGates := build()
	ref, refGates := build()
	for w := 0; w < 6; w++ {
		// Uneven budgets: one CPU drains and sits Done while the other runs.
		for i := range evGates {
			n := 1_500 * (i + 1)
			evGates[i].budget, refGates[i].budget = n, n
			ev.CPU(i).ResumeSource()
			ref.CPU(i).ResumeSource()
		}
		if done, _ := lockstepCompare(t, ev, ref, wakeCap); !done {
			t.Fatalf("window %d did not drain", w)
		}
	}
}

// TestWorkCountersCoverCycles pins the work counters' accounting: with no
// warmup reset, each CPU's ticked and skipped cycles sum to its Cycles,
// and an SMP TPC-C run skips work.
func TestWorkCountersCoverCycles(t *testing.T) {
	cfg := config.Base().WithCPUs(4)
	cfg.WarmupInsts = 0
	sys, err := New(cfg, sources(workload.TPCC16P(), 4, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, capped, _ := sys.RunContext(context.Background(), wakeCap); capped {
		t.Fatal("hit the cycle cap")
	}
	var skippedAll uint64
	for i := 0; i < 4; i++ {
		c := sys.CPU(i)
		w := c.Work()
		if w.Ticked+w.Skipped != c.Stats.Cycles {
			t.Errorf("cpu%d: ticked %d + skipped %d != Cycles %d", i, w.Ticked, w.Skipped, c.Stats.Cycles)
		}
		skippedAll += w.Skipped
	}
	if skippedAll == 0 {
		t.Error("tpcc16p skipped no CPU cycles")
	}
	if w := sys.Work(); w.Skipped != skippedAll || w.Ticked == 0 {
		t.Errorf("System.Work = %+v, want skipped %d and some ticks", w, skippedAll)
	}
	if w := sys.Work(); w.StationScans == 0 || w.WindowScans == 0 {
		t.Errorf("System.Work = %+v, want station and window scans", w)
	}
}
