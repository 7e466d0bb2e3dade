package expt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/core"
	"sparc64v/internal/obs"
)

// Small windows keep the suite fast; shape assertions are correspondingly
// loose (the full-size shapes are validated by cmd/sweep and recorded in
// EXPERIMENTS.md).
func testOpt() core.RunOptions { return core.RunOptions{Insts: 50_000} }

// runStudy runs a study at testOpt and checks it produced n results.
func runStudy(t *testing.T, study func(context.Context, core.RunOptions) ([]Result, error), n int) []Result {
	t.Helper()
	rs, err := study(context.Background(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n {
		t.Fatalf("study returned %d results, want %d", len(rs), n)
	}
	return rs
}

func TestTable1(t *testing.T) {
	r := Table1()
	if r.ID != "Table 1" || r.Table.Rows() < 10 {
		t.Fatalf("Table1 = %+v", r)
	}
	s := r.String()
	for _, want := range []string{"SPARC-V9", "out-of-order", "16K-entry", "2MB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestFig07(t *testing.T) {
	r := runStudy(t, Fig07, 1)[0]
	if r.Table.Rows() != 5 {
		t.Fatalf("Fig07 has %d rows", r.Table.Rows())
	}
	if !strings.Contains(r.Table.String(), "TPC-C") {
		t.Error("Fig07 missing TPC-C row")
	}
}

func TestFig08(t *testing.T) {
	r := runStudy(t, Fig08, 1)[0]
	if r.Table.Rows() != 5 {
		t.Fatalf("Fig08 has %d rows", r.Table.Rows())
	}
}

func TestFig09and10(t *testing.T) {
	rs := runStudy(t, Fig09and10, 2)
	r9, r10 := rs[0], rs[1]
	if r9.Table.Rows() != 5 || r10.Table.Rows() != 5 {
		t.Fatal("BHT figures incomplete")
	}
}

func TestFig11to13(t *testing.T) {
	for _, r := range runStudy(t, Fig11to13, 3) {
		if r.Table.Rows() != 5 {
			t.Fatalf("%s has %d rows", r.ID, r.Table.Rows())
		}
	}
}

func TestFig14and15(t *testing.T) {
	rs := runStudy(t, Fig14and15, 2)
	r14, r15 := rs[0], rs[1]
	// Five UP workloads plus TPC-C(16P).
	if r14.Table.Rows() != 6 || r15.Table.Rows() != 6 {
		t.Fatalf("L2 figures: %d/%d rows", r14.Table.Rows(), r15.Table.Rows())
	}
	if !strings.Contains(r14.Table.String(), "TPC-C(16P)") {
		t.Error("Fig14 missing the 16P row")
	}
}

func TestFig16and17(t *testing.T) {
	rs := runStudy(t, Fig16and17, 2)
	r16, r17 := rs[0], rs[1]
	if r16.Table.Rows() != 5 || r17.Table.Rows() != 5 {
		t.Fatal("prefetch figures incomplete")
	}
}

func TestFig18(t *testing.T) {
	r := runStudy(t, Fig18, 1)[0]
	if r.Table.Rows() != 5 {
		t.Fatalf("Fig18 has %d rows", r.Table.Rows())
	}
}

func TestFig19(t *testing.T) {
	r := runStudy(t, Fig19, 1)[0]
	if r.Table.Rows() != 8 {
		t.Fatalf("Fig19 has %d rows (want v1..v8)", r.Table.Rows())
	}
	if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "final error") {
		t.Errorf("Fig19 notes missing the final-error summary: %v", r.Notes)
	}
}

func TestMPOptScaling(t *testing.T) {
	o := mpOpt(core.RunOptions{Insts: 400_000})
	if o.Insts != 100_000 || o.Warmup != 20_000 {
		t.Fatalf("mpOpt = %+v", o)
	}
	o = mpOpt(core.RunOptions{Insts: 40_000})
	if o.Insts != 30_000 {
		t.Fatalf("mpOpt floor = %+v", o)
	}
	o = mpOpt(core.RunOptions{})
	if o.Insts != 100_000 {
		t.Fatalf("mpOpt default = %+v", o)
	}
}

func TestHPCStudy(t *testing.T) {
	r := runStudy(t, HPCStudy, 1)[0]
	if r.Table.Rows() != 5 {
		t.Fatalf("rows: %d", r.Table.Rows())
	}
}

func TestModelSpeed(t *testing.T) {
	r := runStudy(t, ModelSpeed, 1)[0]
	// One calibration row per UP workload.
	if r.Table.Rows() != 5 {
		t.Fatalf("rows: %d", r.Table.Rows())
	}
	// The rendered table must be deterministic (no wall-clock columns):
	// rendering twice gives the same bytes.
	if a, b := r.Table.String(), runStudy(t, ModelSpeed, 1)[0].Table.String(); a != b {
		t.Error("ModelSpeed table is not deterministic across runs")
	}
}

// TestModelSpeedProfilesEveryRun: a profiled sweep records the Section 2.1
// runs like every other study's, one "run" span per UP workload.
func TestModelSpeedProfilesEveryRun(t *testing.T) {
	opt := testOpt()
	opt.Obs = obs.NewCollector()
	if _, err := ModelSpeed(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	var runs []string
	for _, p := range opt.Obs.Profiles() {
		if p.Name == "run" {
			runs = append(runs, p.Label)
		}
	}
	if len(runs) != 5 {
		t.Fatalf("ModelSpeed recorded %d run spans %v, want 5", len(runs), runs)
	}
}

// TestModelSpeedCancelled: a cancelled run fails the study instead of
// silently dropping its row, so a cut sweep marks Section 2.1 incomplete
// rather than rendering a short table.
func TestModelSpeedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := ModelSpeed(ctx, testOpt())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ModelSpeed on a cancelled context: %d results, err = %v; want context.Canceled",
			len(rs), err)
	}
}

// TestAllContextPreCancelled: a sweep whose context is already dead must
// still render a marker in every presentation slot, in order, and report
// the cancellation — the "Ctrl-C renders what finished" contract at its
// degenerate extreme where nothing finished.
func TestAllContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := AllContext(ctx, testOpt())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AllContext err = %v", err)
	}
	all := Studies()
	if len(results) != len(all) {
		t.Fatalf("got %d results, want one marker per study (%d)", len(results), len(all))
	}
	for i, r := range results {
		if r.ID != all[i].Name {
			t.Errorf("slot %d: ID %q, want %q", i, r.ID, all[i].Name)
		}
		if r.Title != "(incomplete)" {
			t.Errorf("slot %d: Title %q, want (incomplete)", i, r.Title)
		}
		if !strings.Contains(r.Table.String(), "not completed") {
			t.Errorf("slot %d: marker table lacks status row:\n%s", i, r.Table.String())
		}
	}
}

// TestAllContextMidCancel gives a long sweep a short deadline: whatever
// studies finished keep their real tables, the rest carry markers, and
// every study has at least one slot in presentation order.
func TestAllContextMidCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := AllContext(ctx, core.RunOptions{Insts: 3_000_000, Workers: 2})
	if err == nil {
		t.Skip("sweep finished inside the deadline; nothing to observe")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AllContext err = %v", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("cancelled sweep took %v to return", d)
	}
	if len(results) < len(Studies()) {
		t.Fatalf("only %d results for %d studies", len(results), len(Studies()))
	}
	incomplete := 0
	for _, r := range results {
		if r.Title == "(incomplete)" {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("deadline expired yet no study was marked incomplete")
	}
	t.Logf("%d/%d result slots incomplete after the deadline", incomplete, len(results))
}

// TestAllContextUncancelledMatchesAll: with a live context the sweep
// completes every study — no slot carries an incomplete marker; its
// determinism across worker counts is locked by
// TestAllDeterministicAcrossWorkers.
func TestAllContextUncancelledMatchesAll(t *testing.T) {
	results, err := AllContext(context.Background(), testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Title == "(incomplete)" {
			t.Fatalf("uncancelled sweep produced an incomplete marker: %s", r.ID)
		}
	}
}
