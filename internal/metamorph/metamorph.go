// Package metamorph is the metamorphic + differential verification harness:
// it treats the timing simulator as the system under test and checks
// cross-run invariants instead of golden numbers.
//
// The paper validated its performance model by cross-checking it,
// instruction by instruction, against an independent logic simulator and
// by confirming that design-change trends agreed between models. Without
// RTL we reproduce the *shape* of that methodology with four check
// families over the model itself:
//
//   - monotonicity: a strictly better machine must not perform worse —
//     larger or more associative caches cannot miss more, a wider issue
//     width cannot lower IPC, and each perfect-ization rung of the
//     Figure 7 ladder cannot add cycles;
//   - conservation: counters must balance — committed instructions equal
//     the trace composition (per class) on a zero-warmup run, fetch ≥
//     commit on every run including truncated and cancelled ones, and
//     every cache reports at least as many accesses as misses;
//   - differential: independent implementations must agree exactly — the
//     OoO commit stream against the trace and the reverse-tracer replay,
//     the LRU cache against a structurally different shadow model, a
//     cache-served run against the cold simulation that produced it, a
//     3-node cluster against a single node, and design-change trends
//     against the in-order reference model;
//   - conformance: the SMP model must obey the SPARC TSO memory model —
//     litmus-test sweeps (internal/litmus) may never observe a forbidden
//     outcome and must witness the store-buffer relaxation.
//
// Checks run through the public model API (internal/core and
// internal/system, and the HTTP service for the cluster check) and fan
// out on the scheduler. This package also owns the injectable model
// faults (InjectFault) that prove the catalog still catches bugs;
// cmd/verify is the CLI gate and `make verify` / CI wire it into the
// build.
package metamorph

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/sched"
	"sparc64v/internal/workload"
)

// Violation is an invariant failure: the harness ran fine and the model
// broke a promise. Anything else a check returns is an infrastructure
// error, reported separately so a broken harness is never mistaken for a
// verified model.
type Violation struct {
	Msg string
}

// Error implements error.
func (v *Violation) Error() string { return v.Msg }

// violationf builds a Violation.
func violationf(format string, args ...any) error {
	return &Violation{Msg: fmt.Sprintf(format, args...)}
}

// Check statuses.
const (
	StatusPass  = "pass"
	StatusFail  = "fail"
	StatusError = "error"
)

// Check is one catalog entry.
type Check struct {
	// Name is the stable identifier ("mono-l1-size", "diff-cache-shadow").
	Name string
	// Kind is the family: "monotonicity", "conservation" or "differential".
	Kind string
	// Detail is a one-line description of the invariant.
	Detail string
	// FullOnly excludes the check from -quick mode (expensive MP runs).
	FullOnly bool
	// Run evaluates the invariant. A *Violation return means the model
	// failed the check; any other error means the harness could not run it.
	// The returned string summarizes the measured quantities (shown on pass
	// and fail alike).
	Run func(ctx context.Context, env *Env) (string, error)
}

// Env is the shared context checks run in.
type Env struct {
	// Base is the machine under verification (config.Base() in cmd/verify).
	Base config.Config
	// Profiles are the workloads each workload-driven check iterates.
	Profiles []workload.Profile
	// Insts is the per-run trace length; Seed selects the trace windows.
	Insts int
	Seed  int64
	// Workers bounds the inner fan-out of checks that run several
	// simulations (Breakdown, TrendCheck). The harness already parallelizes
	// across checks, so 1 is the right default.
	Workers int
	// Full mirrors Options.Full so checks can scale their own depth (the
	// TSO sweep doubles its seed count in full mode).
	Full bool
	// Obs collects per-run profile spans for every simulation the checks
	// execute; nil disables profiling.
	Obs *obs.Collector
}

// opts returns the RunOptions shared by simulation-driven checks.
func (e *Env) opts() core.RunOptions {
	return core.RunOptions{Insts: e.Insts, Seed: e.Seed, Workers: e.Workers, Obs: e.Obs}
}

// run simulates profile p on cfg with the env's options.
func (e *Env) run(ctx context.Context, cfg config.Config, p workload.Profile) (reportIPC, error) {
	m, err := core.NewModel(cfg)
	if err != nil {
		return reportIPC{}, err
	}
	r, err := m.RunContext(ctx, p, e.opts())
	if err != nil {
		return reportIPC{}, err
	}
	return reportIPC{
		IPC:        r.IPC(),
		L1I:        r.L1IMissRate(),
		L1D:        r.L1DMissRate(),
		L2:         r.L2DemandMissRate(),
		BranchFail: r.BranchFailureRate(),
	}, nil
}

// reportIPC is the metric tuple monotonicity checks compare.
type reportIPC struct {
	IPC, L1I, L1D, L2, BranchFail float64
}

// Verdict is one check's outcome, serialization-ready for the -json report.
type Verdict struct {
	Check     string `json:"check"`
	Kind      string `json:"kind"`
	Status    string `json:"status"`
	Detail    string `json:"detail,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// Report is a full harness run, the machine-readable artifact the CI gate
// uploads.
type Report struct {
	ModelVersion string    `json:"model_version"`
	Mode         string    `json:"mode"`
	Config       string    `json:"config"`
	Seed         int64     `json:"seed"`
	Insts        int       `json:"insts"`
	Fault        string    `json:"injected_fault"`
	Workloads    []string  `json:"workloads"`
	Verdicts     []Verdict `json:"verdicts"`
	Pass         int       `json:"pass"`
	Fail         int       `json:"fail"`
	Errors       int       `json:"errors"`
	ElapsedMS    int64     `json:"elapsed_ms"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Fail == 0 && r.Errors == 0 }

// Options configures a harness run.
type Options struct {
	// Full selects the full catalog and workload set; the default is the
	// quick CI gate (subset of workloads, MP checks skipped).
	Full bool
	// Seed selects the trace windows (0 = 42, matching core's default).
	Seed int64
	// Insts overrides the per-run trace length (0 = mode default:
	// 50k quick, 150k full).
	Insts int
	// Workers bounds check-level concurrency (0 = GOMAXPROCS).
	Workers int
	// Checks, when non-empty, restricts the run to the named checks.
	Checks []string
	// Obs, when non-nil, collects a per-check timing span ("check"/<name>).
	Obs *obs.Collector
}

// modeProfiles returns the workload set for a mode.
func modeProfiles(full bool) []workload.Profile {
	if full {
		return append(workload.UPProfiles(), workload.HPC())
	}
	return []workload.Profile{workload.SPECint95(), workload.TPCC()}
}

// Run executes the catalog and assembles the report. Checks are
// independent and execute on the scheduler; verdicts stay in catalog
// order. Run never fails on an invariant violation — that is the report's
// job — and only returns an error for harness-level problems (an unknown
// check name in opt.Checks).
func Run(ctx context.Context, opt Options) (Report, error) {
	start := time.Now()
	mode := "quick"
	insts := 50_000
	if opt.Full {
		mode, insts = "full", 150_000
	}
	if opt.Insts > 0 {
		insts = opt.Insts
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 42
	}
	env := &Env{
		Base:     config.Base(),
		Profiles: modeProfiles(opt.Full),
		Insts:    insts,
		Seed:     seed,
		Workers:  1,
		Full:     opt.Full,
		Obs:      opt.Obs,
	}
	checks, err := selectChecks(opt)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		ModelVersion: core.ModelVersion,
		Mode:         mode,
		Config:       env.Base.Name,
		Seed:         seed,
		Insts:        insts,
		Fault:        injectedFaults(),
	}
	for _, p := range env.Profiles {
		rep.Workloads = append(rep.Workloads, p.Name)
	}
	verdicts, _ := sched.MapCtx(ctx, len(checks), sched.Options{Workers: opt.Workers},
		func(ctx context.Context, i int) (Verdict, error) {
			c := checks[i]
			sp := opt.Obs.StartSpan("check", c.Name)
			t0 := time.Now()
			detail, err := c.Run(ctx, env)
			v := Verdict{
				Check:     c.Name,
				Kind:      c.Kind,
				Status:    StatusPass,
				Detail:    detail,
				ElapsedMS: time.Since(t0).Milliseconds(),
			}
			var viol *Violation
			switch {
			case errors.As(err, &viol):
				v.Status, v.Detail = StatusFail, viol.Msg
			case err != nil:
				v.Status, v.Detail = StatusError, err.Error()
			}
			sp.Add(v.Status, 1)
			sp.Finish()
			return v, nil
		})
	rep.Verdicts = verdicts
	for _, v := range rep.Verdicts {
		switch v.Status {
		case StatusPass:
			rep.Pass++
		case StatusFail:
			rep.Fail++
		default:
			rep.Errors++
		}
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, nil
}

// selectChecks resolves the catalog subset for the options.
func selectChecks(opt Options) ([]Check, error) {
	all := Catalog()
	if len(opt.Checks) == 0 {
		if opt.Full {
			return all, nil
		}
		quick := all[:0:0]
		for _, c := range all {
			if !c.FullOnly {
				quick = append(quick, c)
			}
		}
		return quick, nil
	}
	byName := make(map[string]Check, len(all))
	var names []string
	for _, c := range all {
		byName[c.Name] = c
		names = append(names, c.Name)
	}
	sort.Strings(names)
	var sel []Check
	for _, name := range opt.Checks {
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("metamorph: unknown check %q (have %v)", name, names)
		}
		sel = append(sel, c)
	}
	return sel, nil
}

// fault is one injectable model bug: the name -inject takes, and how to
// arm, disarm and read the injection point (internal/cache or
// internal/coherence) that owns it.
type fault struct {
	name  string
	set   func(on bool)
	armed func() bool
}

// faultAt builds the table entry for fault f of an injection point whose
// zero value means "no fault".
func faultAt[F comparable](name string, f F, inject func(F), injected func() F) fault {
	var none F
	return fault{
		name: name,
		set: func(on bool) {
			if on {
				inject(f)
			} else {
				inject(none)
			}
		},
		armed: func() bool { return injected() == f },
	}
}

// faults is the one table of injectable faults, in listing order.
var faults = []fault{
	faultAt("l1index", cache.FaultIndexBits, cache.InjectFault, cache.InjectedFault),
	faultAt("dropinval", coherence.FaultDropInvalidate, coherence.InjectFault, coherence.InjectedFault),
}

// InjectFault arms the named model fault for every model built afterwards
// and disarms every other; "" and "none" disarm them all. Injection is
// process-global: call it before any simulation starts, never mid-run.
func InjectFault(name string) error {
	if name == "" {
		name = "none"
	}
	var names []string
	for _, f := range faults {
		names = append(names, f.name)
	}
	if name != "none" && !slices.Contains(names, name) {
		return fmt.Errorf("metamorph: unknown fault %q (have: %s)", name, strings.Join(names, ", "))
	}
	for _, f := range faults {
		f.set(f.name == name)
	}
	return nil
}

// injectedFaults renders the armed faults for the report header: their
// names joined by "+", or "none".
func injectedFaults() string {
	var armed []string
	for _, f := range faults {
		if f.armed() {
			armed = append(armed, f.name)
		}
	}
	if len(armed) == 0 {
		return "none"
	}
	return strings.Join(armed, "+")
}
