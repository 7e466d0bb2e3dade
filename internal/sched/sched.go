// Package sched is the experiment-harness run scheduler: a bounded worker
// pool that executes independent simulation jobs concurrently and returns
// their results in deterministic submission order.
//
// The paper's methodology depends on model turnaround (its C model ran at
// 7.8K instructions/second, and every design study is a set of independent
// (configuration, workload) simulations). Each simulation in this
// reproduction builds its own Model, trace generators and machine state, so
// the jobs share nothing mutable; the scheduler exploits that independence
// on multicore hosts while keeping every table byte-identical to a serial
// run: results are ordered by submission index, never by completion time,
// and all randomness stays inside the per-job generators.
//
// Every entry point (MapCtx, MapAllCtx, DoCtx) takes the batch context
// first. Run lifecycle: the pool stops handing out job indices once the
// context is cancelled — jobs not yet started report ctx.Err() — and
// every worker recovers panics into a *PanicError carrying the job index
// and a truncated stack, so one bad configuration in a long sweep reports
// instead of killing its siblings.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sparc64v/internal/obs"
)

// Options configures one scheduled batch.
type Options struct {
	// Workers bounds the number of jobs in flight; <= 0 means GOMAXPROCS.
	// 1 degenerates to a strictly serial run (same order, same results).
	Workers int
	// OnDone, when non-nil, is called once per job as it finishes, with the
	// job's submission index and error. Calls may arrive out of order and
	// concurrently; the callback must be safe for concurrent use. Jobs
	// skipped because the batch context was cancelled still get a call,
	// with the context's error.
	OnDone func(index int, err error)
}

// Workers resolves a worker-count request against the host.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// maxPanicStack bounds the stack captured into a PanicError: enough for
// the panic site and the frames leading to it, without dumping the whole
// goroutine dump of a deep simulation into an error string.
const maxPanicStack = 4 << 10

// PanicError is a job panic recovered by the scheduler. The batch keeps
// running: sibling jobs are unaffected, and the panicking job reports this
// error at its submission index.
type PanicError struct {
	// Index is the job's submission index within its batch.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, truncated to a few KB.
	Stack []byte
}

// Error renders the panic with its job index and stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// runJob executes one job, converting a panic into a *PanicError.
func runJob[T any](ctx context.Context, i int, job func(ctx context.Context, index int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > maxPanicStack {
				stack = append(stack[:maxPanicStack], "... (truncated)"...)
			}
			err = &PanicError{Index: i, Value: r, Stack: stack}
		}
	}()
	return job(ctx, i)
}

// MapCtx runs job(0..n-1) on a bounded worker pool and returns the results
// in submission order. Every job runs regardless of other jobs' failures;
// the returned error is the lowest-index job error (nil if all succeeded),
// so a parallel run reports the same error a serial loop would have hit
// first. Cancelling ctx stops new jobs from starting (already-running jobs
// finish, or observe ctx themselves), and jobs that never started report
// ctx.Err() at their index, so a batch cancelled before any job failed
// returns ctx.Err().
func MapCtx[T any](ctx context.Context, n int, opt Options, job func(ctx context.Context, index int) (T, error)) ([]T, error) {
	out, errs := MapAllCtx(ctx, n, opt, job)
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// MapAllCtx is MapCtx with per-job error capture: errs[i] is job i's
// error, or ctx.Err() for jobs skipped after cancellation.
func MapAllCtx[T any](ctx context.Context, n int, opt Options, job func(ctx context.Context, index int) (T, error)) (out []T, errs []error) {
	out = make([]T, n)
	errs = make([]error, n)
	if n == 0 {
		return out, errs
	}
	workers := Workers(opt.Workers)
	if workers > n {
		workers = n
	}
	submitted := time.Now()
	queueDepth.Add(int64(n))
	runOne := func(i int, busy *obs.Counter) {
		queueDepth.Add(-1)
		runningJobs.Add(1)
		t0 := time.Now()
		if err := ctx.Err(); err != nil {
			errs[i] = err
		} else {
			out[i], errs[i] = runJob(ctx, i, job)
		}
		busy.Add(uint64(time.Since(t0)))
		runningJobs.Add(-1)
		jobSeconds.ObserveSince(submitted)
		if errs[i] != nil {
			jobsErr.Inc()
		} else {
			jobsOK.Inc()
		}
		if opt.OnDone != nil {
			opt.OnDone(i, errs[i])
		}
	}
	if workers == 1 {
		// Serial fast path: no goroutines, deterministic by construction.
		busy := workerBusy(0)
		for i := 0; i < n; i++ {
			runOne(i, busy)
		}
		return out, errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			busy := workerBusy(w)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(i, busy)
			}
		}(w)
	}
	wg.Wait()
	return out, errs
}

// DoCtx runs independent thunks (no results) with MapCtx semantics and
// returns the lowest-index error.
func DoCtx(ctx context.Context, opt Options, jobs ...func(context.Context) error) error {
	_, err := MapCtx(ctx, len(jobs), opt, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, jobs[i](ctx)
	})
	return err
}
