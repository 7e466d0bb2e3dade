package litmus

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
)

// BaseConfig returns the machine litmus runs use: the Table 1 machine with
// the small L1s and a 256KB L2 (tiny runs get tiny caches — the shared
// footprint must stay far below L2 capacity so lines are never silently
// evicted past the observer, see the Observer trust boundary) and zero
// measurement warmup (every committed instruction is part of the program).
// CPU count is set per run from the shape.
func BaseConfig() config.Config {
	cfg := config.Base().WithSmallL1()
	cfg.Mem.L2.SizeBytes = 256 << 10
	cfg.WarmupInsts = 0
	cfg.Name += ".litmus"
	return cfg
}

// Options parameterises a Sweep.
type Options struct {
	// Seeds is the number of runs (default 32). Each seed gets its own
	// random skews/gaps and cycles through the per-CPU skew patterns.
	Seeds int
	// BaseSeed offsets the per-run seeds (default 1).
	BaseSeed int64
	// CPUs pads the machine beyond the shape's natural size (0 = natural).
	CPUs int
	// Workers bounds the parallel fan-out (0 = GOMAXPROCS).
	Workers int
}

// A sweep's random fillers: up to sweepMaxSkew before each CPU's body and
// up to sweepMaxGap between body steps.
const (
	sweepMaxSkew = 96
	sweepMaxGap  = 3
)

// runMaxCycles caps each run; litmus runs take ~1k cycles.
const runMaxCycles = 1_000_000

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 32
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	return o
}

// lateSkew is the structural skew of a "this CPU runs late" pattern: far
// past sweepMaxSkew plus the ~64-cycle store-drain window, so a late CPU's
// body provably starts after an early CPU's stores have drained.
const lateSkew = 256

// skewPatterns returns the structural per-CPU skew patterns a sweep
// cycles through: everyone aligned, each shape CPU late in turn, and all
// reader CPUs late together (the pattern that arms multi-reader shapes
// like IRIW — both readers must run after both writers for a split
// observation to be visible at all).
func skewPatterns(t Test) [][]int {
	patterns := [][]int{make([]int, t.CPUs)}
	for i := 0; i < t.CPUs; i++ {
		p := make([]int, t.CPUs)
		p[i] = lateSkew
		patterns = append(patterns, p)
	}
	readers := make([]int, t.CPUs)
	n := 0
	for i, prog := range t.Progs {
		for _, s := range prog {
			if !s.Store {
				readers[i] = lateSkew
				n++
				break
			}
		}
	}
	if n > 1 && n < t.CPUs {
		patterns = append(patterns, readers)
	}
	return patterns
}

// Result is one classified litmus run.
type Result struct {
	// Outcome is the observed register tuple.
	Outcome []int
	// Allowed reports whether TSO permits it.
	Allowed bool
	// Cycles is the run length.
	Cycles uint64
}

// Run builds and simulates one litmus program and classifies its outcome.
// Errors are infrastructure failures (the run could not be trusted);
// forbidden outcomes come back as Allowed=false, not as errors.
func Run(ctx context.Context, t Test, cfg config.Config, bopt BuildOptions) (Result, error) {
	prog, err := t.Build(bopt)
	if err != nil {
		return Result{}, err
	}
	cfg = cfg.WithCPUs(prog.CPUs)
	cfg.WarmupInsts = 0
	srcs := make([]trace.Source, prog.CPUs)
	for i := range srcs {
		srcs[i] = trace.NewSliceSource(prog.Recs[i])
	}
	sys, err := system.New(cfg, srcs)
	if err != nil {
		return Result{}, err
	}
	obs, err := NewObserver(prog, uint(bits.TrailingZeros(uint(cfg.L1D.LineBytes))))
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < prog.CPUs; i++ {
		sys.CPU(i).Observer = obs
		sys.Chip(i).Observer = obs
	}
	cycles, capped, err := sys.RunContext(ctx, runMaxCycles)
	if err != nil {
		return Result{}, err
	}
	if capped {
		return Result{}, fmt.Errorf("litmus %s: run hit the %d-cycle cap", t.Name, runMaxCycles)
	}
	for i := 0; i < prog.CPUs; i++ {
		if got, want := sys.CPU(i).Stats.Committed, uint64(len(prog.Recs[i])); got != want {
			return Result{}, fmt.Errorf("litmus %s: cpu %d committed %d of %d records", t.Name, i, got, want)
		}
	}
	// The protocol invariant must hold for every shared line after the
	// run — unless a coherence fault is armed, in which case breaking it
	// is the point and the verdict belongs to the outcome classification.
	if coherence.InjectedFault() == coherence.FaultNone {
		for v, ea := range prog.VarAddr {
			if !sys.Controller().CheckCoherence(ea) {
				return Result{}, fmt.Errorf("litmus %s: coherence invariant violated on var %d", t.Name, v)
			}
		}
	}
	if errs := obs.Finish(); len(errs) > 0 {
		return Result{}, fmt.Errorf("litmus %s: observer diverged: %s", t.Name, strings.Join(errs, "; "))
	}
	out := obs.Outcome()
	return Result{Outcome: out, Allowed: t.Allowed(out), Cycles: cycles}, nil
}

// OutcomeCount is one row of a sweep's outcome histogram.
type OutcomeCount struct {
	Outcome string `json:"outcome"`
	Count   int    `json:"count"`
	Allowed bool   `json:"allowed"`
}

// SweepResult is the classified histogram of a multi-seed sweep.
type SweepResult struct {
	Test     string         `json:"test"`
	CPUs     int            `json:"cpus"`
	Seeds    int            `json:"seeds"`
	Outcomes []OutcomeCount `json:"outcomes"`
	// Forbidden lists every TSO-forbidden observation with its seed.
	Forbidden []string `json:"forbidden,omitempty"`
	// WitnessMissing lists required outcomes the sweep never produced.
	WitnessMissing []string `json:"witness_missing,omitempty"`
}

// OK reports a clean sweep: no forbidden outcome, no missing witness.
func (r *SweepResult) OK() bool {
	return len(r.Forbidden) == 0 && len(r.WitnessMissing) == 0
}

// OutcomeString renders a register tuple ("r0=0 r1=1").
func OutcomeString(out []int) string {
	var b strings.Builder
	for i, v := range out {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "r%d=%d", i, v)
	}
	return b.String()
}

// Sweep runs a shape across opt.Seeds seeds, cycling the structural skew
// patterns, and classifies every outcome. The result is deterministic for
// fixed options at any worker count: runs fan out on the scheduler but
// merge in seed order.
func Sweep(ctx context.Context, t Test, cfg config.Config, opt Options) (SweepResult, error) {
	opt = opt.withDefaults()
	patterns := skewPatterns(t)
	results, err := sched.MapCtx(ctx, opt.Seeds, sched.Options{Workers: opt.Workers},
		func(ctx context.Context, i int) (Result, error) {
			bopt := BuildOptions{
				Seed:      opt.BaseSeed + int64(i),
				MaxSkew:   sweepMaxSkew,
				MaxGap:    sweepMaxGap,
				ExtraSkew: patterns[i%len(patterns)],
				CPUs:      opt.CPUs,
			}
			return Run(ctx, t, cfg, bopt)
		})
	if err != nil {
		return SweepResult{}, err
	}
	cpus := t.CPUs
	if opt.CPUs > cpus {
		cpus = opt.CPUs
	}
	sr := SweepResult{Test: t.Name, CPUs: cpus, Seeds: opt.Seeds}
	counts := make(map[string]*OutcomeCount)
	order := []string{}
	for i, r := range results {
		key := OutcomeString(r.Outcome)
		oc := counts[key]
		if oc == nil {
			oc = &OutcomeCount{Outcome: key, Allowed: r.Allowed}
			counts[key] = oc
			order = append(order, key)
		}
		oc.Count++
		if !r.Allowed {
			sr.Forbidden = append(sr.Forbidden,
				fmt.Sprintf("seed %d: %s", opt.BaseSeed+int64(i), key))
		}
	}
	for _, w := range t.Witness {
		if counts[OutcomeString(w)] == nil {
			sr.WitnessMissing = append(sr.WitnessMissing, OutcomeString(w))
		}
	}
	// Histogram rows sort by outcome string: stable across worker counts
	// and human-scannable.
	for _, key := range order {
		sr.Outcomes = append(sr.Outcomes, *counts[key])
	}
	sort.Slice(sr.Outcomes, func(i, j int) bool {
		return sr.Outcomes[i].Outcome < sr.Outcomes[j].Outcome
	})
	return sr, nil
}
