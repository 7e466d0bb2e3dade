package core

import (
	"context"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// TestRunManyParallelMatchesSerial pins the scheduler contract at the
// harness level: fanning the seed sweep onto workers must reproduce the
// serial reports seed for seed, in order.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	const n = 4
	run := func(workers int) []system.Report {
		opt := RunOptions{Insts: 20_000, Workers: workers}
		reports, errs := RunJobs(context.Background(), seedJobs(config.Base(), workload.SPECint95(), opt, n), opt)
		if err := firstErr(errs); err != nil {
			t.Fatal(err)
		}
		return reports
	}
	serial, parallel := run(1), run(n)
	if len(serial) != n || len(parallel) != n {
		t.Fatalf("report counts: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Cycles != p.Cycles || s.Committed != p.Committed {
			t.Errorf("seed %d: serial %d cycles/%d committed, parallel %d cycles/%d committed",
				i, s.Cycles, s.Committed, p.Cycles, p.Committed)
		}
	}
}

// TestBreakdownParallelMatchesSerial does the same for the four-run
// perfect-ization study.
func TestBreakdownParallelMatchesSerial(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{Insts: 20_000, Workers: 1}
	serial, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	parallel, err := m.BreakdownContext(context.Background(), workload.TPCC(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Breakdown != parallel.Breakdown {
		t.Errorf("breakdown differs: serial %+v, parallel %+v", serial.Breakdown, parallel.Breakdown)
	}
	if serial.Base.Cycles != parallel.Base.Cycles ||
		serial.PerfectAll.Cycles != parallel.PerfectAll.Cycles {
		t.Errorf("cycle counts differ: base %d/%d, perfect-all %d/%d",
			serial.Base.Cycles, parallel.Base.Cycles,
			serial.PerfectAll.Cycles, parallel.PerfectAll.Cycles)
	}
}
