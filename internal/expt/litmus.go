package expt

import (
	"context"
	"fmt"
	"strings"

	"sparc64v/internal/core"
	"sparc64v/internal/litmus"
	"sparc64v/internal/stats"
)

// LitmusStudy sweeps the TSO litmus-test catalog (internal/litmus) and
// renders the outcome-frequency table: every shape at its natural machine
// size, each observed register tuple with its count and TSO verdict. The
// paper's part implements SPARC TSO; this study is the repository's
// visible evidence that the SMP model both never violates it and actually
// exhibits the one relaxation TSO permits (SB's r0=0,r1=0 store-buffer
// signature). Deterministic for a fixed seed at any worker count.
func LitmusStudy(ctx context.Context, opt core.RunOptions) ([]Result, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 42
	}
	cfg := litmus.BaseConfig()
	t := stats.NewTable("TSO litmus outcome frequencies (32 seeds per shape)",
		"shape", "cpus", "outcome", "count", "tso")
	var notes []string
	clean := true
	for _, tt := range litmus.Tests() {
		sr, err := litmus.Sweep(ctx, tt, cfg, litmus.Options{
			Seeds:    32,
			BaseSeed: seed,
			Workers:  opt.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("litmus %s: %w", tt.Name, err)
		}
		for _, oc := range sr.Outcomes {
			verdict := "allowed"
			if !oc.Allowed {
				verdict = "FORBIDDEN"
			}
			t.AddRow(sr.Test, sr.CPUs, oc.Outcome, oc.Count, verdict)
		}
		if !sr.OK() {
			clean = false
			notes = append(notes, fmt.Sprintf("%s: forbidden=%v witness_missing=%v",
				sr.Test, sr.Forbidden, sr.WitnessMissing))
		}
	}
	if clean {
		notes = append(notes,
			"all outcomes TSO-allowed; sb witnesses the store-buffer relaxation (r0=0 r1=0)",
			"shapes: "+strings.Join(litmus.Names(), ", ")+" — see internal/litmus and `sparc64sim -litmus`")
	} else {
		notes = append(notes, "VERDICT: FAIL — the SMP model violates SPARC TSO")
	}
	return []Result{{
		ID:    "Litmus",
		Title: "SPARC TSO memory-ordering conformance (litmus-test sweeps)",
		Table: t,
		Notes: notes,
	}}, nil
}
