package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/isa"
	"sparc64v/internal/sched"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// missChain is an endless trace of dependent loads, each to a new page: the
// machine waits on memory for every instruction, so a run over it reaches
// the cycle cap quickly and never ends on its own.
type missChain struct{ i uint64 }

func (m *missChain) Next(r *trace.Record) bool {
	m.i++
	*r = trace.Record{PC: 0x10000 + 4*(m.i%1024), Op: isa.Load, EA: m.i * (1 << 20), Size: 8,
		Dst: 9, Src1: 9, Src2: isa.RegNone}
	return true
}

// brokenSource panics after a few records.
type brokenSource struct{ left int }

func (b *brokenSource) Next(r *trace.Record) bool {
	if b.left == 0 {
		panic("trace source broke")
	}
	b.left--
	*r = trace.Record{PC: 0x1000, Op: isa.Nop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return true
}

// waitGoroutines waits for the goroutine count to fall back to want.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d: a read-ahead outlived the run", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunSourcesJoinsReadAheads: RunSourcesContext decodes every source on
// a read-ahead goroutine and stops them all before it returns, however the
// run ends: cancelled, capped, failing to start, or panicking (which sched
// still isolates as a *sched.PanicError).
func TestRunSourcesJoinsReadAheads(t *testing.T) {
	base := runtime.NumGoroutine()
	m, err := NewModel(config.Base().WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{Insts: 1000}
	endless := func() []trace.Source {
		return []trace.Source{workload.New(workload.SPECint95(), 1, 0), workload.New(workload.SPECint95(), 1, 1)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := m.RunSourcesContext(ctx, "cancelled", endless(), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	waitGoroutines(t, "cancelled run", base)

	rep, err := m.RunSourcesContext(context.Background(), "capped", []trace.Source{&missChain{}, &missChain{}}, opt)
	if err == nil || !rep.HitCap || !strings.Contains(err.Error(), "cycle cap") {
		t.Fatalf("capped run: HitCap %v, err = %v", rep.HitCap, err)
	}
	waitGoroutines(t, "capped run", base)

	if _, err := m.RunSourcesContext(context.Background(), "short", endless()[:1], opt); err == nil {
		t.Fatal("a 2-CPU run started with one source")
	}
	bad := opt
	bad.Sample = config.Sampling{IntervalInsts: 1000, WarmupInsts: 600, MeasureInsts: 600}
	if _, err := m.RunSourcesContext(context.Background(), "bad sampling", endless(), bad); err == nil {
		t.Fatal("a run started with an invalid sampling schedule")
	}
	waitGoroutines(t, "runs that failed to start", base)

	_, errs := sched.MapAllCtx(context.Background(), 2, sched.Options{Workers: 1}, func(ctx context.Context, _ int) (struct{}, error) {
		srcs := []trace.Source{&brokenSource{left: 3000}, trace.NewLimitSource(workload.New(workload.SPECint95(), 1, 1), 5000)}
		_, err := m.RunSourcesContext(ctx, "broken", srcs, opt)
		return struct{}{}, err
	})
	for i, err := range errs {
		var pe *sched.PanicError
		if !errors.As(err, &pe) || pe.Value != "trace source broke" {
			t.Fatalf("job %d: err = %v, want the source's panic as a *sched.PanicError", i, err)
		}
	}
	waitGoroutines(t, "panicked runs", base)
}
