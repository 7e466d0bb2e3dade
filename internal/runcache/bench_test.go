package runcache

import (
	"context"
	"testing"

	"sparc64v/internal/system"
)

// These benchmarks feed scripts/benchdiff.sh, the CI benchmark regression
// gate. allocs/op is the tight, machine-independent signal there; keep each
// benchmark's per-iteration work deterministic so that count stays stable.

func BenchmarkKeyID(b *testing.B) {
	k := testKey(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if k.ID() == "" {
			b.Fatal("empty id")
		}
	}
}

// BenchmarkGetOrRunMemoryHit is the read fast path — one LRU lookup plus
// the defensive report clone handed to the caller — which is what a warm
// server request actually pays.
func BenchmarkGetOrRunMemoryHit(b *testing.B) {
	c, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	key := testKey(1)
	ctx := context.Background()
	run := func(context.Context) (system.Report, error) { return testReport(1), nil }
	if _, _, err := c.GetOrRun(ctx, key, run); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, outcome, err := c.GetOrRun(ctx, key, run); err != nil || outcome != OutcomeMemoryHit {
			b.Fatalf("outcome = %v, err = %v", outcome, err)
		}
	}
}

// BenchmarkGetOrRunMiss is the cold path minus the simulation itself:
// leader election, the flight's detached context, insert, LRU maintenance
// (with steady-state evictions once the table fills).
func BenchmarkGetOrRunMiss(b *testing.B) {
	c, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rep := testReport(1)
	run := func(context.Context) (system.Report, error) { return rep, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, outcome, err := c.GetOrRun(ctx, testKey(int64(i)), run); err != nil || outcome != OutcomeMiss {
			b.Fatalf("outcome = %v, err = %v", outcome, err)
		}
	}
}
