package expt

import (
	"context"
	"testing"

	"sparc64v/internal/core"
)

// TestAllDeterministicAcrossWorkers is the scheduler's core contract: the
// full study suite — every result, including the Section 2.1 calibration
// table — must render byte-identically whether it runs serially or fanned
// out. (Wall-clock throughput, the one thing parallelism changes, is
// reported on cmd/sweep's stderr, never in a rendered table.)
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	opt := core.RunOptions{Insts: 20_000}

	opt.Workers = 1
	serial, err := AllContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	parallel, err := AllContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.ID != p.ID {
			t.Fatalf("result %d: ID %q (serial) vs %q (parallel)", i, s.ID, p.ID)
		}
		if got, want := p.String(), s.String(); got != want {
			t.Errorf("%s differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				s.ID, want, got)
		}
	}
}
