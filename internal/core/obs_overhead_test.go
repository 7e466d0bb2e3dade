package core

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/workload"
)

// TestInstrumentationIsInvisible pins the obs design rule: profiling may
// observe a simulation but never change it. The same run with and without
// a collector must produce a byte-identical Report.
func TestInstrumentationIsInvisible(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SPECint95()
	opt := RunOptions{Insts: 30_000}

	plain, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	opt.Obs = col
	profiled, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(profiled)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("profiling changed the Report:\nplain:    %s\nprofiled: %s", a, b)
	}

	// And the profile itself must be a faithful transcript of the run.
	profs := col.Profiles()
	if len(profs) != 1 {
		t.Fatalf("profiles = %d, want 1", len(profs))
	}
	var committed, cycles, ticked, skipped, stationScans, windowScans int64
	for _, c := range profs[0].Counters {
		switch c.Name {
		case "committed":
			committed = c.Value
		case "cycles":
			cycles = c.Value
		case "ticked_cpu_cycles":
			ticked = c.Value
		case "skipped_cpu_cycles":
			skipped = c.Value
		case "station_entries_scanned":
			stationScans = c.Value
		case "window_entries_scanned":
			windowScans = c.Value
		}
	}
	if uint64(committed) != profiled.Committed || uint64(cycles) != profiled.Cycles {
		t.Errorf("profile counters (committed=%d cycles=%d) disagree with report (%d, %d)",
			committed, cycles, profiled.Committed, profiled.Cycles)
	}
	// The work counters cover the whole run, warmup included, so they
	// bound the measured CPU cycles from above.
	if measured := profiled.CPUs[0].Core.Cycles; ticked <= 0 || uint64(ticked+skipped) < measured {
		t.Errorf("work counters ticked=%d skipped=%d do not cover the %d measured CPU cycles",
			ticked, skipped, measured)
	}
	if stationScans <= 0 || windowScans <= 0 {
		t.Errorf("scan counters station=%d window=%d, want both positive", stationScans, windowScans)
	}
}

// TestInstrumentationOverheadBound pins that enabling profiling costs a
// fixed handful of work per run, not a share of the simulation. Wall time
// on a shared host drifts by more than any useful bound between identical
// runs, so the test prices a host-independent cost instead: heap
// allocations. A span adds a fixed handful (its maps, phase closures and
// counter entries), while an accidental per-cycle or per-instruction
// observation adds allocations in proportion to the simulation. So the
// profiled run's extra allocations must stay under a small cap and must not
// grow from a 50k- to a 200k-instruction run. A plain run makes only about
// a hundred allocations, so a ratio to it would price the fixed handful,
// not the growth. A GC cycle that lands inside a measured run adds a few
// runtime allocations, so each measurement starts from a collected heap,
// and AllocsPerRun(1) still jitters by an allocation or two.
func TestInstrumentationOverheadBound(t *testing.T) {
	const maxExtra, jitter = 32, 2
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(p workload.Profile, insts int, profiled bool) float64 {
		runtime.GC()
		return testing.AllocsPerRun(1, func() {
			opt := RunOptions{Insts: insts}
			if profiled {
				opt.Obs = obs.NewCollector()
			}
			if _, err := m.RunContext(context.Background(), p, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	extra := func(p workload.Profile, insts int) float64 {
		return allocs(p, insts, true) - allocs(p, insts, false)
	}
	for _, p := range []workload.Profile{workload.SPECint95(), workload.TPCC()} {
		short, long := extra(p, 50_000), extra(p, 200_000)
		if short > maxExtra || long > maxExtra {
			t.Errorf("%s: profiling added %.0f allocations at 50k and %.0f at 200k instructions, cap %d",
				p.Name, short, long, maxExtra)
		}
		if math.Abs(long-short) > jitter {
			t.Errorf("%s: profiling added %.0f allocations at 50k but %.0f at 200k instructions: the overhead grows with the run",
				p.Name, short, long)
		}
	}
}
