package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// testCacheOpt returns a small, fast run configuration.
func testCacheOpt(cache *runcache.Cache) RunOptions {
	return RunOptions{Insts: 30_000, Seed: 7, Workers: 1, Cache: cache}
}

// TestCachedRunByteIdentical pins the cache's core guarantee: for an
// identical (config, workload, seed, insts, version) tuple, the cached and
// uncached paths return exactly equal reports — every table derived from
// them renders byte-identically.
func TestCachedRunByteIdentical(t *testing.T) {
	m, err := NewModel(config.Base())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SPECint95()

	fresh, err := m.RunContext(context.Background(), p, testCacheOpt(nil))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.RunContext(context.Background(), p, testCacheOpt(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.RunContext(context.Background(), p, testCacheOpt(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cold) {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Fatal("warm cached run differs from uncached run")
	}
	s := cache.Stats()
	if s.Misses != 1 || s.MemoryHits != 1 {
		t.Fatalf("stats: %+v (want 1 miss, 1 memory hit)", s)
	}

	// A second process over the same cache dir serves from disk, again
	// exactly equal.
	cache2, err := runcache.New(runcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := m.RunContext(context.Background(), p, testCacheOpt(cache2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, disk) {
		t.Fatal("disk-served run differs from uncached run")
	}
	if s := cache2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats: %+v (want 1 disk hit, 0 misses)", s)
	}
}

// TestCacheKeySensitivity pins that changing any run parameter re-simulates
// instead of serving a stale entry.
func TestCacheKeySensitivity(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SPECint95()
	base := config.Base()
	m, _ := NewModel(base)

	opt := testCacheOpt(cache)
	if _, err := m.RunContext(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	// Different seed.
	o := opt
	o.Seed = 8
	if _, err := m.RunContext(context.Background(), p, o); err != nil {
		t.Fatal(err)
	}
	// Different config.
	m2, _ := NewModel(base.WithIssueWidth(2))
	if _, err := m2.RunContext(context.Background(), p, opt); err != nil {
		t.Fatal(err)
	}
	// Different workload, same display name: profile hash must separate.
	p2 := p
	p2.BlockLen++
	if _, err := m.RunContext(context.Background(), p2, opt); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 4 || s.Hits() != 0 {
		t.Fatalf("stats: %+v (want 4 distinct misses)", s)
	}
}

// TestBreakdownWarmCache pins the incremental-sweep behavior at the study
// level: a second Breakdown over a warm cache runs zero simulations and
// returns identical results.
func TestBreakdownWarmCache(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(config.Base())
	p := workload.SPECint95()
	opt := testCacheOpt(cache)

	cold, err := m.BreakdownContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses
	warm, err := m.BreakdownContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm breakdown differs from cold")
	}
	s := cache.Stats()
	if s.Misses != misses {
		t.Fatalf("warm breakdown re-simulated: %d -> %d misses", misses, s.Misses)
	}
	if s.Hits() == 0 {
		t.Fatal("warm breakdown did not hit the cache")
	}
}

// TestRunManyDedup pins singleflight at the harness level: identical seeds
// submitted concurrently share one simulation.
func TestRunManyDedup(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := testCacheOpt(cache)
	opt.Workers = 4
	jobs := seedJobs(config.Base(), workload.SPECint95(), opt, 3)

	// The same 3 seeds twice concurrently: the second wave must share or
	// hit, never duplicate a simulation.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, errs := RunJobs(context.Background(), jobs, opt)
			done <- firstErr(errs)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != 3 {
		t.Fatalf("6 submitted runs over 3 seeds simulated %d times, want 3 (stats %+v)", s.Misses, s)
	}
}

// TestRunJobsDuplicateJobsShareOneRun: a job listed twice is one run, both
// through RunJobs (which batches the group) and through one RunBatch. The
// cache records one miss per distinct key, and no report handed back
// aliases what the cache stored: mutating every returned CPUs slice leaves
// a later hit unchanged.
func TestRunJobsDuplicateJobsShareOneRun(t *testing.T) {
	p := workload.SPECint95()
	cfgs := batchNeighborhood()[:2]
	dup := []config.Config{cfgs[0], cfgs[1], cfgs[0]}
	for _, tc := range []struct {
		name string
		run  func(RunOptions) ([]system.Report, []error)
	}{
		{"RunJobs", func(opt RunOptions) ([]system.Report, []error) {
			jobs := make([]Job, len(dup))
			for i, cfg := range dup {
				jobs[i] = Job{Config: cfg, Profile: p, Opt: opt}
			}
			return RunJobs(context.Background(), jobs, opt)
		}},
		{"RunBatch", func(opt RunOptions) ([]system.Report, []error) {
			return RunBatch(context.Background(), dup, p, opt)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := runcache.New(runcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opt := RunOptions{Insts: 20_000, Workers: 1, Cache: cache}
			reps, errs := tc.run(opt)
			for i := range reps {
				if errs[i] != nil {
					t.Fatalf("job %d: %v", i, errs[i])
				}
			}
			if s := cache.Stats(); s.Misses != 2 {
				t.Fatalf("%d jobs over 2 distinct keys simulated %d times (stats %+v)", len(dup), s.Misses, s)
			}
			want := reportBytes(t, reps[0])
			if got := reportBytes(t, reps[2]); got != want {
				t.Fatal("duplicate job's report differs from the first")
			}
			for i := range reps {
				for c := range reps[i].CPUs {
					reps[i].CPUs[c].Core.Cycles = 0
				}
			}
			m, _ := NewModel(cfgs[0])
			hit, err := m.RunContext(context.Background(), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if reportBytes(t, hit) != want {
				t.Fatal("a caller's mutation of its report leaked into the cache")
			}
		})
	}
}

// TestRunContextJoinsBatchFlight: a RunContext issued while a RunBatch
// leads the same key joins the batch's flight instead of simulating it
// again, so the process simulates exactly the batch's members.
func TestRunContextJoinsBatchFlight(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchNeighborhood()[:4]
	p := workload.SPECint95()
	opt := RunOptions{Insts: 200_000, Cache: cache}
	runs0 := simRuns.Value()

	type result struct {
		reps []system.Report
		errs []error
	}
	batched := make(chan result, 1)
	go func() {
		reps, errs := RunBatch(context.Background(), cfgs, p, opt)
		batched <- result{reps, errs}
	}()
	// The batch has claimed every key once its members are advancing.
	for batchOccupancy.Value() < int64(len(cfgs)) {
		time.Sleep(time.Millisecond)
	}
	m, _ := NewModel(cfgs[2])
	joined, err := m.RunContext(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := <-batched
	for i, err := range b.errs {
		if err != nil {
			t.Fatalf("batch member %d: %v", i, err)
		}
	}
	if s := cache.Stats(); s.Shared != 1 || s.Misses != uint64(len(cfgs)) {
		t.Fatalf("stats %+v, want %d misses and the RunContext as 1 shared", s, len(cfgs))
	}
	if runs := simRuns.Value() - runs0; runs != uint64(len(cfgs)) {
		t.Fatalf("simulated %d runs, want the batch's %d", runs, len(cfgs))
	}
	if reportBytes(t, joined) != reportBytes(t, b.reps[2]) {
		t.Fatal("joined report differs from the batch member's")
	}
}
