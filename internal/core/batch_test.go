package core

import (
	"context"
	"encoding/json"
	"errors"
	"iter"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// batchNeighborhood is the 8-config sweep neighborhood the batching tests
// and benchmarks share: the base machine plus the paper's usual parameter
// excursions (issue width, BHT, L1, L2, prefetch, reservation stations).
func batchNeighborhood() []config.Config {
	base := config.Base()
	return []config.Config{
		base,
		base.WithIssueWidth(2),
		base.WithIssueWidth(6),
		base.WithSmallBHT(),
		base.WithSmallL1(),
		base.WithOffChipL2(4),
		base.WithoutPrefetch(),
		base.WithOneRS(),
	}
}

// reportBytes marshals a report for byte-level comparison.
func reportBytes(t *testing.T, r system.Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

// runSerial runs each config through the ordinary serial path.
func runSerial(t *testing.T, cfgs []config.Config, p workload.Profile, opt RunOptions) []system.Report {
	t.Helper()
	out := make([]system.Report, len(cfgs))
	for i, cfg := range cfgs {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		out[i], err = m.RunContext(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
	}
	return out
}

// TestRunBatchMatchesSerial: a batched 8-config run must produce Reports
// byte-identical to 8 serial runs, for every uniprocessor workload.
func TestRunBatchMatchesSerial(t *testing.T) {
	cfgs := batchNeighborhood()
	opt := RunOptions{Insts: 20_000}
	for _, p := range workload.UPProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			serial := runSerial(t, cfgs, p, opt)
			reps, errs := RunBatch(context.Background(), cfgs, p, opt)
			for i := range cfgs {
				if errs[i] != nil {
					t.Fatalf("batch member %d: %v", i, errs[i])
				}
				if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
					t.Errorf("member %d (%s) batched report differs from serial\nbatched: %s\nserial:  %s",
						i, cfgs[i].Name, got, want)
				}
			}
		})
	}
}

// TestRunBatchSampledMatchesSerial: the sampled engine under the lockstep
// driver must execute the identical per-member action sequence.
func TestRunBatchSampledMatchesSerial(t *testing.T) {
	cfgs := batchNeighborhood()
	opt := RunOptions{
		Insts:  120_000,
		Sample: config.Sampling{IntervalInsts: 20_000, WarmupInsts: 1_000, MeasureInsts: 2_000},
	}
	p := workload.SPECint95()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched sampled report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchMPMatchesSerial: multiprocessor members share one fanout per
// CPU stream; coherence traffic must still evolve identically to serial.
func TestRunBatchMPMatchesSerial(t *testing.T) {
	base := config.Base().WithCPUs(2)
	cfgs := []config.Config{
		base,
		base.WithSmallL1(),
		base.WithIssueWidth(2),
		base.WithoutPrefetch(),
	}
	opt := RunOptions{Insts: 15_000}
	p := workload.TPCC16P()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched MP report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchSampledMPMatchesSerial: sampled + MP + batching compose.
func TestRunBatchSampledMPMatchesSerial(t *testing.T) {
	base := config.Base().WithCPUs(2)
	cfgs := []config.Config{base, base.WithSmallL1(), base.WithIssueWidth(2)}
	opt := RunOptions{
		Insts:  40_000,
		Sample: config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 2_000},
	}
	p := workload.TPCC16P()
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
			t.Errorf("member %d (%s) batched sampled MP report differs from serial", i, cfgs[i].Name)
		}
	}
}

// TestRunBatchCancellation: cancelling mid-batch errors every unfinished
// member with the serial cancellation wrapping, and each partial report
// still satisfies fetched >= committed per CPU (the conservation invariant
// cancelled serial runs guarantee).
func TestRunBatchCancellation(t *testing.T) {
	cfgs := batchNeighborhood()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	defer cancel()
	reps, errs := RunBatch(ctx, cfgs, workload.SPECint95(), RunOptions{Insts: 400_000})
	cancelled := 0
	for i := range cfgs {
		if errs[i] == nil {
			continue // finished before the cancel landed
		}
		cancelled++
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("member %d err = %v, want context.Canceled", i, errs[i])
		}
		if !strings.Contains(errs[i].Error(), "cancelled") {
			t.Errorf("member %d err = %v", i, errs[i])
		}
		for c := range reps[i].CPUs {
			core := reps[i].CPUs[c].Core
			if core.Fetched < core.Committed {
				t.Errorf("member %d cpu%d fetched %d < committed %d", i, c, core.Fetched, core.Committed)
			}
		}
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation; nothing to assert")
	}
}

// TestRunBatchCacheSkip: members already in the run cache are served before
// streaming begins; simulated members are stored individually, so a second
// batch is all hits.
func TestRunBatchCacheSkip(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchNeighborhood()[:4]
	p := workload.SPECint95()
	opt := RunOptions{Insts: 20_000, Cache: cache}

	// Pre-warm exactly one member through the serial path.
	m, _ := NewModel(cfgs[2])
	pre, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	s0 := cache.Stats()

	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
	}
	if got, want := reportBytes(t, reps[2]), reportBytes(t, pre); got != want {
		t.Error("cache-served member differs from its pre-warmed report")
	}
	s1 := cache.Stats()
	if hits := s1.Hits() - s0.Hits(); hits != 1 {
		t.Errorf("first batch took %d cache hits, want 1", hits)
	}
	if miss := s1.Misses - s0.Misses; miss != 3 {
		t.Errorf("first batch recorded %d misses, want 3", miss)
	}

	// Second identical batch: every member served from cache, nothing runs.
	runs0 := simRuns.Value()
	reps2, errs2 := RunBatch(context.Background(), cfgs, p, opt)
	for i := range cfgs {
		if errs2[i] != nil {
			t.Fatalf("second batch member %d: %v", i, errs2[i])
		}
		if got, want := reportBytes(t, reps2[i]), reportBytes(t, reps[i]); got != want {
			t.Errorf("second batch member %d differs from first", i)
		}
	}
	s2 := cache.Stats()
	if hits := s2.Hits() - s1.Hits(); hits != 4 {
		t.Errorf("second batch took %d cache hits, want 4", hits)
	}
	if runs := simRuns.Value() - runs0; runs != 0 {
		t.Errorf("all-hit batch simulated %d runs (misses %d -> %d)", runs, s1.Misses, s2.Misses)
	}
}

// TestSimulatedCounters pins the process-wide simulation meter: a full-run
// miss advances sparc64v_simulated_{instructions,cycles,runs}_total by
// exactly its Committed/Cycles/1, a sampled miss counts only its detailed
// instructions, and a cache hit advances nothing.
func TestSimulatedCounters(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	full := RunOptions{Insts: 20_000, Cache: cache}
	sampled := full
	sampled.Insts = 60_000
	sampled.Sample = config.Sampling{IntervalInsts: 20_000, WarmupInsts: 1_000, MeasureInsts: 2_000}

	run := func(opt RunOptions) (rep system.Report, instrs, cycles, runs uint64) {
		t.Helper()
		i0, c0, r0 := simInstrs.Value(), simCycles.Value(), simRuns.Value()
		rep, err := m.RunContext(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep, simInstrs.Value() - i0, simCycles.Value() - c0, simRuns.Value() - r0
	}

	rep, instrs, cycles, runs := run(full)
	if instrs != rep.Committed || cycles != rep.Cycles || runs != 1 {
		t.Errorf("full miss: +%d instrs, +%d cycles, +%d runs; want +%d, +%d, +1",
			instrs, cycles, runs, rep.Committed, rep.Cycles)
	}
	rep, instrs, cycles, runs = run(sampled)
	if rep.Sampling == nil {
		t.Fatal("sampled run has no sampling block")
	}
	if instrs != rep.Sampling.DetailedInsts || cycles == 0 || runs != 1 {
		t.Errorf("sampled miss: +%d instrs, +%d cycles, +%d runs; want +%d detailed instrs, cycles > 0, +1",
			instrs, cycles, runs, rep.Sampling.DetailedInsts)
	}
	for _, opt := range []RunOptions{full, sampled} {
		if _, instrs, cycles, runs := run(opt); instrs != 0 || cycles != 0 || runs != 0 {
			t.Errorf("cache hit (sampled=%v): +%d instrs, +%d cycles, +%d runs; want 0",
				opt.Sample.Enabled(), instrs, cycles, runs)
		}
	}
}

// TestRunBatchMixedCPUs: a member whose CPU count differs cannot share the
// per-CPU streams; it errors individually without sinking the batch.
func TestRunBatchMixedCPUs(t *testing.T) {
	cfgs := []config.Config{
		config.Base(),
		config.Base().WithCPUs(2),
		config.Base().WithSmallL1(),
	}
	p := workload.SPECint95()
	opt := RunOptions{Insts: 10_000}
	serial := []system.Report{}
	for _, i := range []int{0, 2} {
		m, _ := NewModel(cfgs[i])
		r, err := m.RunContext(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "CPUs") {
		t.Fatalf("mixed-CPU member err = %v", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("conforming members errored: %v, %v", errs[0], errs[2])
	}
	if got, want := reportBytes(t, reps[0]), reportBytes(t, serial[0]); got != want {
		t.Error("member 0 differs from serial")
	}
	if got, want := reportBytes(t, reps[2]), reportBytes(t, serial[1]); got != want {
		t.Error("member 2 differs from serial")
	}
}

// TestRunBatchSingleLive: with one live member the driver degrades to the
// ordinary serial path (nothing to amortize), still returning its report.
func TestRunBatchSingleLive(t *testing.T) {
	cfgs := []config.Config{config.Base()}
	p := workload.SPECint95()
	opt := RunOptions{Insts: 10_000}
	serial := runSerial(t, cfgs, p, opt)
	reps, errs := RunBatch(context.Background(), cfgs, p, opt)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if got, want := reportBytes(t, reps[0]), reportBytes(t, serial[0]); got != want {
		t.Error("single-member batch differs from serial")
	}
}

// TestBatchKey: sweep points that share a trace group together; anything
// that changes the trace or the schedule separates them.
func TestBatchKey(t *testing.T) {
	p := workload.SPECint95()
	opt := RunOptions{Insts: 20_000}
	k1, err := BatchKey(config.Base(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := BatchKey(config.Base().WithSmallL1(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("config variation changed the batch key; variants could not batch")
	}
	for name, alt := range map[string]struct {
		cfg config.Config
		p   workload.Profile
		opt RunOptions
	}{
		"seed":     {config.Base(), p, RunOptions{Insts: 20_000, Seed: 7}},
		"insts":    {config.Base(), p, RunOptions{Insts: 30_000}},
		"profile":  {config.Base(), workload.SPECfp95(), opt},
		"cpus":     {config.Base().WithCPUs(2), p, opt},
		"sampling": {config.Base(), p, RunOptions{Insts: 20_000, Sample: config.Sampling{IntervalInsts: 10_000, MeasureInsts: 1_000}}},
	} {
		k, err := BatchKey(alt.cfg, alt.p, alt.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("%s variation did not change the batch key", name)
		}
	}
}

// TestStepMatchesRunContext: a machine driven by arbitrary Step chunks must
// land on the same terminal state as one driven by RunContext (the batch
// driver's correctness foundation).
func TestStepMatchesRunContext(t *testing.T) {
	p := workload.SPECint95()
	opt := RunOptions{Insts: 10_000}
	serial := runSerial(t, []config.Config{config.Base()}, p, opt)

	opt.defaults()
	m, _ := NewModel(config.Base())
	cfg := m.Config()
	cfg.WarmupInsts = opt.Warmup
	gens := workload.NewMP(p, opt.Seed, cfg.CPUs)
	sys, err := system.New(cfg, []trace.Source{trace.NewLimitSource(gens[0], opt.Insts)})
	if err != nil {
		t.Fatal(err)
	}
	chunks := []int{1, 3, 17, 256, 1000}
	for i := 0; ; i++ {
		done, capped := sys.Step(chunks[i%len(chunks)], opt.maxCycles())
		if capped {
			t.Fatal("stepped run hit the cycle cap")
		}
		if done {
			break
		}
	}
	r := sys.Report(p.Name)
	if got, want := reportBytes(t, r), reportBytes(t, serial[0]); got != want {
		t.Error("stepped report differs from RunContext report")
	}
}

// TestDriveStallFallback drives lockstep batches over a ring shallower than
// one step's demand, so no member can ever step from the ring and every
// round stalls. The engine must peel the members off one by one and drive
// each again as a batch of one over fresh sources: every report must be
// byte-identical to the member's own serial run, and each peel must count
// as a stall restart.
func TestDriveStallFallback(t *testing.T) {
	mp := config.Base().WithCPUs(2)
	cases := []struct {
		name string
		cfgs []config.Config
		p    workload.Profile
		opt  RunOptions
	}{
		{"sampled", []config.Config{config.Base(), config.Base().WithSmallL1()}, workload.SPECint95(),
			RunOptions{Insts: 40_000, Sample: config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 2_000}}},
		{"full-2cpu", []config.Config{mp, mp.WithIssueWidth(2)}, workload.TPCC16P(), RunOptions{Insts: 10_000}},
	}
	const depth = 64 // below a sampled chunk or window and a full member's stride × fetch width
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial := runSerial(t, c.cfgs, c.p, c.opt)
			opt := c.opt
			opt.defaults()
			models := make([]*Model, len(c.cfgs))
			ctxs := make([]context.Context, len(c.cfgs))
			for i, cfg := range c.cfgs {
				models[i], _ = NewModel(cfg)
				ctxs[i] = context.Background()
			}
			before := batchStallRestarts.Value()
			reps, errs := lockstep(ctxs, models, c.p, opt, depth)
			if got := batchStallRestarts.Value() - before; got < uint64(len(models)) {
				t.Errorf("stall restarts went up by %d, want >= %d", got, len(models))
			}
			for i := range c.cfgs {
				if errs[i] != nil {
					t.Fatalf("member %d: %v", i, errs[i])
				}
				if got, want := reportBytes(t, reps[i]), reportBytes(t, serial[i]); got != want {
					t.Errorf("member %d (%s) differs from its batch-of-one run", i, c.cfgs[i].Name)
				}
			}
		})
	}
}

// scriptMember is an engine member of n actions with no trace demand; with
// panics set, its second action panics. returned records that its action
// sequence has ended.
type scriptMember struct {
	n        int
	panics   bool
	returned bool
}

func (m *scriptMember) actions(context.Context) iter.Seq[demand] {
	return func(yield func(demand) bool) {
		defer func() { m.returned = true }()
		for k := 0; k < m.n && yield(demand{-1, 0}); k++ {
			if m.panics && k == 1 {
				panic("scripted panic")
			}
		}
	}
}

func (m *scriptMember) finish(error) (system.Report, error) { return system.Report{}, nil }

// TestDriveStopsSequencesOnPanic: a member that panics mid-run propagates
// out of drive, and the other members' parked action sequences are stopped
// on the way out rather than left behind.
func TestDriveStopsSequencesOnPanic(t *testing.T) {
	bad, other := &scriptMember{n: 10, panics: true}, &scriptMember{n: 100}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("drive swallowed the member's panic")
			}
		}()
		ctxs := []context.Context{context.Background(), context.Background()}
		drive(ctxs, []member{bad, other}, nil, nil)
	}()
	if !other.returned {
		t.Error("a parked member's action sequence outlived drive")
	}
}
