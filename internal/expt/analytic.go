package expt

import (
	"context"
	"fmt"

	"sparc64v/internal/analytic"
	"sparc64v/internal/core"
	"sparc64v/internal/stats"
)

// AnalyticStudy renders the grey-box analytic estimator's accuracy
// against the detailed model: per workload, the base-configuration measured
// and predicted CPI, the fitted overlap coefficients, and the residual
// spread across the eight-configuration calibration ladder. The study reads
// the embedded calibration artifact — the measured numbers are the detailed
// reference runs recorded at calibration time — so it costs no simulation
// and is deterministic by construction (the analytic-residual check in
// cmd/verify re-validates the artifact against fresh detailed runs).
func AnalyticStudy(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	cal, err := analytic.Default()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Analytic CPI estimator vs detailed model (base configuration)",
		"workload", "detailed CPI", "analytic CPI", "err %", "ladder worst err %", "ladder rmse %",
		"c_core", "c_mem", "c_branch", "c_0")
	for _, wc := range cal.Workloads {
		var base *analytic.Residual
		for i := range wc.Residuals {
			if wc.Residuals[i].Config == "sparc64v.base" {
				base = &wc.Residuals[i]
			}
		}
		if base == nil {
			return nil, fmt.Errorf("expt: %s: artifact has no base-configuration residual",
				wc.Features.Workload)
		}
		t.AddRow(wc.Features.Workload,
			base.MeasuredCPI, base.EstimatedCPI, 100*base.RelErr,
			100*wc.MaxRelErr, 100*wc.RMSE,
			wc.Coeffs.Core, wc.Coeffs.Mem, wc.Coeffs.Branch, wc.Coeffs.Const)
	}
	return []Result{{ID: "Estimator", Title: "Grey-box analytic CPI model", Table: t,
		Notes: []string{
			fmt.Sprintf("calibrated against %s detailed runs at %d instructions, seed %d; "+
				"regenerate with cmd/calibrate", cal.ModelVersion, cal.Insts, cal.Seed),
			"coefficients are per-workload overlap factors on the additive core/memory/branch " +
				"penalty terms; the out-of-order window hides the remainder",
			"POST /v1/estimate serves this model in microseconds; estimates carry the " +
				"ladder worst-case error as their confidence band",
		}}}, nil
}
