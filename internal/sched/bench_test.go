package sched

import (
	"context"
	"testing"
)

// These benchmarks feed scripts/benchdiff.sh, the CI benchmark regression
// gate. They measure the scheduler's own cost — dispatch, result slots,
// instrumentation — with near-zero job bodies, so a hot-path regression
// (say, an accidental per-job allocation) moves allocs/op immediately.

const benchJobs = 64

// BenchmarkMapSerial is the Workers:1 degenerate path: no goroutines, one
// worker loop in submission order.
func BenchmarkMapSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := MapCtx(context.Background(), benchJobs, Options{Workers: 1}, func(_ context.Context, index int) (int, error) {
			return index, nil
		})
		if err != nil || len(out) != benchJobs {
			b.Fatalf("len = %d, err = %v", len(out), err)
		}
	}
}

// BenchmarkMapParallel is the fan-out path: worker goroutines, the shared
// index counter, and the per-batch metric updates.
func BenchmarkMapParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := MapCtx(context.Background(), benchJobs, Options{Workers: 4}, func(_ context.Context, index int) (int, error) {
			return index, nil
		})
		if err != nil || len(out) != benchJobs {
			b.Fatalf("len = %d, err = %v", len(out), err)
		}
	}
}

// BenchmarkMapAllCtxParallel adds the per-job error slots that MapAllCtx
// returns beside MapCtx's happy path.
func BenchmarkMapAllCtxParallel(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, errs := MapAllCtx(ctx, benchJobs, Options{Workers: 4}, func(ctx context.Context, index int) (int, error) {
			return index, nil
		})
		if len(out) != benchJobs {
			b.Fatalf("len = %d", len(out))
		}
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
