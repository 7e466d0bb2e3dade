package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		out, err := MapCtx(context.Background(), 50, Options{Workers: workers}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapFirstError(t *testing.T) {
	err3 := errors.New("three")
	err7 := errors.New("seven")
	ran := make([]atomic.Bool, 10)
	_, err := MapCtx(context.Background(), 10, Options{Workers: 4}, func(_ context.Context, i int) (int, error) {
		ran[i].Store(true)
		switch i {
		case 7:
			return 0, err7
		case 3:
			return 0, err3
		}
		return i, nil
	})
	if err != err3 {
		t.Fatalf("want lowest-index error %v, got %v", err3, err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("job %d did not run", i)
		}
	}
}

func TestMapAllPerJobErrors(t *testing.T) {
	out, errs := MapAllCtx(context.Background(), 6, Options{Workers: 3}, func(_ context.Context, i int) (string, error) {
		if i%2 == 1 {
			return "", fmt.Errorf("odd %d", i)
		}
		return fmt.Sprintf("ok%d", i), nil
	})
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			if errs[i] == nil || out[i] != "" {
				t.Fatalf("job %d: out=%q errs=%v", i, out[i], errs[i])
			}
		} else if errs[i] != nil || out[i] != fmt.Sprintf("ok%d", i) {
			t.Fatalf("job %d: out=%q errs=%v", i, out[i], errs[i])
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	_, err := MapCtx(context.Background(), 24, Options{Workers: workers}, func(_ context.Context, i int) (int, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Force overlap so the peak is meaningful on multicore hosts; on a
		// single-CPU host the bound still must never be exceeded.
		once.Do(func() { close(gate) })
		<-gate
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestOnDoneCoversEveryJob(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]error{}
	wantErr := errors.New("e")
	_, _ = MapCtx(context.Background(), 12, Options{
		Workers: 4,
		OnDone: func(i int, err error) {
			mu.Lock()
			seen[i] = err
			mu.Unlock()
		},
	}, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			return 0, wantErr
		}
		return i, nil
	})
	if len(seen) != 12 {
		t.Fatalf("OnDone saw %d jobs, want 12", len(seen))
	}
	if seen[5] != wantErr {
		t.Fatalf("OnDone error for job 5 = %v", seen[5])
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit count not honored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("default must be at least 1")
	}
}

func TestDo(t *testing.T) {
	var a, b atomic.Bool
	ctx := context.Background()
	err := DoCtx(ctx, Options{Workers: 2},
		func(context.Context) error { a.Store(true); return nil },
		func(context.Context) error { b.Store(true); return nil },
	)
	if err != nil || !a.Load() || !b.Load() {
		t.Fatalf("DoCtx: err=%v a=%v b=%v", err, a.Load(), b.Load())
	}
	want := errors.New("x")
	if err := DoCtx(ctx, Options{}, func(context.Context) error { return want }); err != want {
		t.Fatalf("DoCtx error = %v", err)
	}
}

func TestEmptyBatch(t *testing.T) {
	out, err := MapCtx(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		out, errs := MapAllCtx(ctx, 8, Options{Workers: workers},
			func(context.Context, int) (int, error) {
				ran.Add(1)
				return 1, nil
			})
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: %d jobs ran under a cancelled context", workers, n)
		}
		for i := range errs {
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("workers=%d: errs[%d] = %v, want context.Canceled", workers, i, errs[i])
			}
			if out[i] != 0 {
				t.Fatalf("workers=%d: out[%d] = %d for a skipped job", workers, i, out[i])
			}
		}
	}
	if _, err := MapCtx(ctx, 3, Options{}, func(context.Context, int) (int, error) {
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx = %v, want context.Canceled", err)
	}
}

// TestMapCtxMidBatchCancel cancels after the third completion: no new jobs
// may start afterwards, every remaining index reports ctx.Err(), and jobs
// that finished keep their results — the "render completed studies" half
// of the run-lifecycle contract.
func TestMapCtxMidBatchCancel(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	out, errs := MapAllCtx(ctx, n, Options{Workers: 4},
		func(ctx context.Context, i int) (int, error) {
			if completed.Add(1) == 3 {
				cancel()
			}
			return i + 1, nil
		})
	ranOK, skipped := 0, 0
	for i := range errs {
		switch {
		case errs[i] == nil:
			if out[i] != i+1 {
				t.Fatalf("completed job %d lost its result: %d", i, out[i])
			}
			ranOK++
		case errors.Is(errs[i], context.Canceled):
			skipped++
		default:
			t.Fatalf("errs[%d] = %v", i, errs[i])
		}
	}
	if ranOK < 3 {
		t.Fatalf("only %d jobs completed before cancel", ranOK)
	}
	if skipped == 0 {
		t.Fatal("cancellation stopped nothing: every job ran")
	}
}

// TestMapCtxCancelPrompt verifies a cancelled batch returns quickly even
// when unstarted jobs would each have taken a long time.
func TestMapCtxCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, errs := MapAllCtx(ctx, 1000, Options{Workers: 2},
		func(context.Context, int) (int, error) {
			time.Sleep(time.Second)
			return 0, nil
		})
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled batch took %v", d)
	}
	if !errors.Is(errs[999], context.Canceled) {
		t.Fatalf("errs[999] = %v", errs[999])
	}
}

func TestPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		out, errs := MapAllCtx(context.Background(), 10, Options{Workers: workers}, func(_ context.Context, i int) (string, error) {
			ran.Add(1)
			if i == 6 {
				panic(fmt.Sprintf("bad config %d", i))
			}
			return fmt.Sprintf("ok%d", i), nil
		})
		if n := ran.Load(); n != 10 {
			t.Fatalf("workers=%d: %d jobs ran, want all 10 despite the panic", workers, n)
		}
		var pe *PanicError
		if !errors.As(errs[6], &pe) {
			t.Fatalf("workers=%d: errs[6] = %v, want *PanicError", workers, errs[6])
		}
		if pe.Index != 6 {
			t.Fatalf("panic error index = %d, want 6", pe.Index)
		}
		if msg := pe.Error(); !strings.Contains(msg, "job 6 panicked") ||
			!strings.Contains(msg, "bad config 6") {
			t.Fatalf("panic error message: %q", msg)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("panic error lacks a stack: %q", pe.Stack)
		}
		for i := 0; i < 10; i++ {
			if i == 6 {
				continue
			}
			if errs[i] != nil || out[i] != fmt.Sprintf("ok%d", i) {
				t.Fatalf("workers=%d: sibling job %d damaged: out=%q errs=%v",
					workers, i, out[i], errs[i])
			}
		}
	}
}

func TestPanicStackTruncated(t *testing.T) {
	// Recurse deep enough that the raw stack exceeds the cap.
	var deep func(n int)
	deep = func(n int) {
		if n == 0 {
			panic("deep")
		}
		deep(n - 1)
	}
	_, errs := MapAllCtx(context.Background(), 1, Options{Workers: 1}, func(context.Context, int) (int, error) {
		deep(500)
		return 0, nil
	})
	var pe *PanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("errs[0] = %v", errs[0])
	}
	if len(pe.Stack) > maxPanicStack+64 {
		t.Fatalf("stack not truncated: %d bytes", len(pe.Stack))
	}
	if !strings.HasSuffix(string(pe.Stack), "... (truncated)") {
		t.Fatalf("truncated stack lacks marker: ...%q", pe.Stack[len(pe.Stack)-32:])
	}
}

func TestDoCtx(t *testing.T) {
	var a atomic.Bool
	if err := DoCtx(context.Background(), Options{Workers: 2},
		func(context.Context) error { a.Store(true); return nil },
	); err != nil || !a.Load() {
		t.Fatalf("DoCtx: err=%v ran=%v", err, a.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := DoCtx(ctx, Options{},
		func(context.Context) error { return nil },
	); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DoCtx = %v", err)
	}
}

func TestOnDoneCalledForSkippedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var mu sync.Mutex
	seen := map[int]error{}
	MapAllCtx(ctx, 5, Options{
		Workers: 2,
		OnDone: func(i int, err error) {
			mu.Lock()
			seen[i] = err
			mu.Unlock()
		},
	}, func(context.Context, int) (int, error) { return 0, nil })
	if len(seen) != 5 {
		t.Fatalf("OnDone saw %d jobs, want 5", len(seen))
	}
	for i, err := range seen {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("OnDone[%d] = %v", i, err)
		}
	}
}
