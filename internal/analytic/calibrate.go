package analytic

import (
	"context"
	"fmt"
	"math"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// Ladder returns the calibration configurations derived from base: the
// reference machine first, then one-knob excursions that exercise every
// term of the model (issue width, L1 capacity both ways, BHT sizing, L2
// geometry and placement, prefetching). Eight points fitting four
// coefficients leaves the fit honestly overdetermined.
func Ladder(base config.Config) []config.Config {
	l2small := base
	l2small.Mem.L2.SizeBytes = 1 << 20
	l2small.Mem.L2.Ways = 2
	l2small.Name += ".l2-1m-2w"
	return []config.Config{
		base,
		base.WithIssueWidth(2),
		base.WithL1Capacity(32<<10, 1),
		base.WithL1Capacity(64<<10, 2),
		base.WithSmallBHT(),
		base.WithOffChipL2(1),
		l2small,
		base.WithoutPrefetch(),
	}
}

// CalibrateOptions controls a calibration run.
type CalibrateOptions struct {
	// Insts is the detailed trace length per reference run (0 means
	// DefaultInsts). It is recorded in the artifact: the residual check
	// re-validates at exactly this operating point.
	Insts int
	// Seed selects the synthetic trace window (0 means 42).
	Seed int64
	// Workers bounds the fan-out over (workload, configuration) reference
	// runs; 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves reference runs content-addressed.
	Cache *runcache.Cache
	// Obs, when non-nil, profiles the reference runs.
	Obs *obs.Collector
}

// DefaultInsts is the calibration trace length: long enough that the
// measured CPI is stable to well under the residual tolerance, short enough
// that regenerating the artifact stays a coffee-break operation.
const DefaultInsts = 150_000

func (o *CalibrateOptions) defaults() {
	if o.Insts <= 0 {
		o.Insts = DefaultInsts
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Calibrate fits per-workload coefficients against detailed reference runs
// of the Ladder configurations and returns the complete, serializable
// calibration artifact. All (workload, configuration) runs go through
// core.RunJobs, so each workload's ladder shares one decoded trace;
// results are deterministic for fixed (Insts, Seed).
func Calibrate(ctx context.Context, profiles []workload.Profile, opt CalibrateOptions) (*Calibration, error) {
	opt.defaults()
	ladder := Ladder(config.Base())
	ropt := core.RunOptions{
		Insts:   opt.Insts,
		Seed:    opt.Seed,
		Workers: opt.Workers,
		Cache:   opt.Cache,
		Obs:     opt.Obs,
	}
	var jobs []core.Job
	for _, p := range profiles {
		for _, cfg := range ladder {
			jobs = append(jobs, core.Job{Config: cfg, Profile: p, Opt: ropt})
		}
	}
	reports, errs := core.RunJobs(ctx, jobs, ropt)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("analytic: calibration reference runs: %w", err)
		}
	}

	cal := &Calibration{
		ModelVersion: core.ModelVersion,
		Insts:        opt.Insts,
		Seed:         opt.Seed,
	}
	for pi, p := range profiles {
		refs := reports[pi*len(ladder) : (pi+1)*len(ladder)]
		feat, err := MeasureFeatures(ladder[0], &refs[0])
		if err != nil {
			return nil, fmt.Errorf("analytic: %s: %w", p.Name, err)
		}
		wc, err := fitWorkload(feat, ladder, refs)
		if err != nil {
			return nil, fmt.Errorf("analytic: %s: %w", p.Name, err)
		}
		cal.Workloads = append(cal.Workloads, wc)
	}
	return cal, nil
}

// fitWorkload fits one workload's coefficients over the ladder and computes
// its residual report.
func fitWorkload(feat Features, ladder []config.Config, refs []system.Report) (WorkloadCalibration, error) {
	terms := make([]Terms, len(ladder))
	y := make([]float64, len(ladder))
	for i := range ladder {
		terms[i], _ = feat.Terms(ladder[i])
		ipc := refs[i].IPC()
		if ipc <= 0 {
			return WorkloadCalibration{}, fmt.Errorf("reference run %s has no IPC", ladder[i].Name)
		}
		y[i] = 1 / ipc
	}
	coeffs := fit(terms, y)
	wc := WorkloadCalibration{Features: feat, Coeffs: coeffs}
	var ss float64
	for i := range ladder {
		est := coeffs.CPI(terms[i])
		rel := (est - y[i]) / y[i]
		wc.Residuals = append(wc.Residuals, Residual{
			Config:       ladder[i].Name,
			MeasuredCPI:  y[i],
			EstimatedCPI: est,
			RelErr:       rel,
		})
		if a := math.Abs(rel); a > wc.MaxRelErr {
			wc.MaxRelErr = a
		}
		ss += rel * rel
	}
	wc.RMSE = math.Sqrt(ss / float64(len(ladder)))
	return wc, nil
}

// fit solves the least-squares problem y ≈ [Core Mem Branch 1]·β with the
// three slope coefficients constrained non-negative: a negative overlap
// factor is physically meaningless and would flip the sign of the model's
// response to a resource change (a smaller cache must never predict a
// lower CPI). The active-set loop clamps the most negative slope to zero
// and refits the rest; with three slopes it terminates in at most three
// passes. The base configuration (row 0) is weighted heavily — it is the
// operating point every estimate starts from, so its residual matters most.
func fit(terms []Terms, y []float64) Coefficients {
	active := []bool{true, true, true}
	for {
		beta := solveWeighted(terms, y, active)
		worst, worstV := -1, 0.0
		for j := 0; j < 3; j++ {
			if active[j] && beta[j] < worstV {
				worst, worstV = j, beta[j]
			}
		}
		if worst < 0 {
			return Coefficients{Core: beta[0], Mem: beta[1], Branch: beta[2], Const: beta[3]}
		}
		active[worst] = false
	}
}

// baseWeight is the least-squares weight of the reference configuration's
// row relative to the excursions.
const baseWeight = 4.0

// solveWeighted solves the normal equations over the active columns plus
// the constant, returning a dense 4-vector (inactive slopes zero).
func solveWeighted(terms []Terms, y []float64, active []bool) [4]float64 {
	cols := []int{}
	for j := 0; j < 3; j++ {
		if active[j] {
			cols = append(cols, j)
		}
	}
	cols = append(cols, 3) // constant column
	n := len(cols)
	// Accumulate XᵀWX and XᵀWy.
	var a [4][4]float64
	var b [4]float64
	row := func(t Terms) [4]float64 { return [4]float64{t.Core, t.Mem, t.Branch, 1} }
	for i := range terms {
		w := 1.0
		if i == 0 {
			w = baseWeight
		}
		x := row(terms[i])
		for ji, j := range cols {
			b[ji] += w * x[j] * y[i]
			for ki, k := range cols {
				a[ji][ki] += w * x[j] * x[k]
			}
		}
	}
	// Tiny ridge keeps the system solvable when a term is constant across
	// the ladder (e.g. every slope clamped but one).
	for j := 0; j < n; j++ {
		a[j][j] += 1e-9
	}
	sol := gauss(a, b, n)
	var beta [4]float64
	for ji, j := range cols {
		beta[j] = sol[ji]
	}
	return beta
}

// gauss solves the n×n system a·x = b by Gaussian elimination with partial
// pivoting. n ≤ 4; the arrays are fixed-size to keep the solver
// allocation-free and deterministic.
func gauss(a [4][4]float64, b [4]float64, n int) [4]float64 {
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if a[col][col] == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [4]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		if a[r][r] != 0 {
			x[r] = s / a[r][r]
		}
	}
	return x
}
