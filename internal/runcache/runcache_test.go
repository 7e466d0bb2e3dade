package runcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sparc64v/internal/system"
)

// testReport fabricates a distinctive report so cache identity mistakes
// are visible in any field.
func testReport(tag uint64) system.Report {
	r := system.Report{
		Name:      fmt.Sprintf("cfg-%d", tag),
		Workload:  "wl",
		Cycles:    1000 + tag,
		Committed: 500 + tag,
		CPUs:      make([]system.CPUReport, 2),
	}
	r.CPUs[0].Core.Cycles = 900 + tag
	r.CPUs[0].Core.Committed = 250 + tag
	r.CPUs[0].ITLBMissRate = 0.001 * float64(tag+1)
	r.CPUs[1].Core.Cycles = 910 + tag
	r.CPUs[1].L1D.DemandAccesses = 12345 + tag
	r.CPUs[1].L1D.DemandMisses = 67 + tag
	r.Coherence.MemoryReads = 42 + tag
	r.BusWaitCycles = 7 + tag
	return r
}

func testKey(seed int64) Key {
	return Key{
		ConfigHash:  "cfghash",
		Workload:    "wl",
		ProfileHash: "profhash",
		Seed:        seed,
		Insts:       100,
		Version:     "model/test",
	}
}

// errNotCached fails lookup's runner: a lookup never simulates.
var errNotCached = errors.New("not cached")

// lookup serves key from the cache's tiers without running anything.
func lookup(c *Cache, key Key) (system.Report, bool) {
	rep, _, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		return system.Report{}, errNotCached
	})
	return rep, err == nil
}

// store runs key to rep through the cache, as a miss.
func store(t *testing.T, c *Cache, key Key, rep system.Report) {
	t.Helper()
	if _, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		return rep, nil
	}); err != nil || outcome != OutcomeMiss {
		t.Fatalf("store: outcome %v err %v", outcome, err)
	}
}

func TestKeyID(t *testing.T) {
	a, b := testKey(1), testKey(1)
	if a.ID() != b.ID() {
		t.Fatal("equal keys produce different IDs")
	}
	muts := []Key{
		{ConfigHash: "x", Workload: "wl", ProfileHash: "profhash", Seed: 1, Insts: 100, Version: "model/test"},
		{ConfigHash: "cfghash", Workload: "x", ProfileHash: "profhash", Seed: 1, Insts: 100, Version: "model/test"},
		{ConfigHash: "cfghash", Workload: "wl", ProfileHash: "x", Seed: 1, Insts: 100, Version: "model/test"},
		testKey(2),
		{ConfigHash: "cfghash", Workload: "wl", ProfileHash: "profhash", Seed: 1, Insts: 101, Version: "model/test"},
		{ConfigHash: "cfghash", Workload: "wl", ProfileHash: "profhash", Seed: 1, Insts: 100, Version: "x"},
	}
	seen := map[string]bool{a.ID(): true}
	for i, k := range muts {
		if seen[k.ID()] {
			t.Errorf("mutation %d collides", i)
		}
		seen[k.ID()] = true
	}
}

func TestMemoryTierHitAndDedup(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	want := testReport(1)
	var runs atomic.Int64
	runner := func(context.Context) (system.Report, error) {
		runs.Add(1)
		return want, nil
	}
	got, outcome, err := c.GetOrRun(context.Background(), key, runner)
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("first call: outcome %v err %v", outcome, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("first call report mismatch:\n%+v\nvs\n%+v", got, want)
	}
	got2, outcome2, err := c.GetOrRun(context.Background(), key, runner)
	if err != nil || outcome2 != OutcomeMemoryHit {
		t.Fatalf("second call: outcome %v err %v", outcome2, err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("cached report differs from original")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}
	// Mutating a returned report must not poison the cache.
	got2.CPUs[0].Core.Cycles = 0
	got3, _, _ := c.GetOrRun(context.Background(), key, runner)
	if !reflect.DeepEqual(got3, want) {
		t.Fatal("cache entry aliased by caller mutation")
	}
	s := c.Stats()
	if s.Misses != 1 || s.MemoryHits != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(1)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		calls++
		return system.Report{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		calls++
		return testReport(1), nil
	})
	if err != nil || outcome != OutcomeMiss || calls != 2 {
		t.Fatalf("retry after error: outcome %v err %v calls %d", outcome, err, calls)
	}
	if s := c.Stats(); s.Errors != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(Options{MaxMemEntries: 2})
	run := func(tag uint64) func(context.Context) (system.Report, error) {
		return func(context.Context) (system.Report, error) { return testReport(tag), nil }
	}
	ctx := context.Background()
	c.GetOrRun(ctx, testKey(1), run(1))
	c.GetOrRun(ctx, testKey(2), run(2))
	// Touch key 1 so key 2 is the LRU victim.
	if _, outcome, _ := c.GetOrRun(ctx, testKey(1), run(1)); outcome != OutcomeMemoryHit {
		t.Fatalf("key 1 should be resident, got %v", outcome)
	}
	c.GetOrRun(ctx, testKey(3), run(3))
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Key 1 survived the eviction (recently used); key 2 was the victim.
	if _, outcome, _ := c.GetOrRun(ctx, testKey(1), run(1)); outcome != OutcomeMemoryHit {
		t.Fatalf("key 1 should have survived (recently used), got %v", outcome)
	}
	if _, outcome, _ := c.GetOrRun(ctx, testKey(2), run(2)); outcome != OutcomeMiss {
		t.Fatalf("key 2 should have been evicted, got %v", outcome)
	}
	if s := c.Stats(); s.Evictions < 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey(7)
	want := testReport(7)
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := c1.GetOrRun(context.Background(), key,
		func(context.Context) (system.Report, error) { return want, nil }); err != nil || outcome != OutcomeMiss {
		t.Fatalf("store: outcome %v err %v", outcome, err)
	}
	// A fresh cache (new process) must serve from disk without running,
	// and the round-tripped report must be exactly equal — the cached and
	// uncached paths must be indistinguishable downstream.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, outcome, err := c2.GetOrRun(context.Background(), key,
		func(context.Context) (system.Report, error) {
			t.Fatal("runner must not execute on a disk hit")
			return system.Report{}, nil
		})
	if err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("load: outcome %v err %v", outcome, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip not exact:\n%+v\nvs\n%+v", got, want)
	}
	// Promoted to memory: next access is a memory hit.
	if _, outcome, _ := c2.GetOrRun(context.Background(), key,
		func(context.Context) (system.Report, error) { return system.Report{}, nil }); outcome != OutcomeMemoryHit {
		t.Fatalf("promotion: outcome %v", outcome)
	}
}

func TestDiskEvictedEntrySurvives(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(Options{Dir: dir, MaxMemEntries: 1})
	ctx := context.Background()
	c.GetOrRun(ctx, testKey(1), func(context.Context) (system.Report, error) { return testReport(1), nil })
	c.GetOrRun(ctx, testKey(2), func(context.Context) (system.Report, error) { return testReport(2), nil })
	// Key 1 was evicted from memory but must come back from disk.
	got, outcome, err := c.GetOrRun(ctx, testKey(1), func(context.Context) (system.Report, error) {
		t.Fatal("must re-load from disk, not re-run")
		return system.Report{}, nil
	})
	if err != nil || outcome != OutcomeDiskHit {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
	if !reflect.DeepEqual(got, testReport(1)) {
		t.Fatal("report mismatch after eviction round trip")
	}
}

func TestSingleflightDedup(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(9)
	want := testReport(9)
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	runner := func(context.Context) (system.Report, error) {
		runs.Add(1)
		close(started)
		<-release
		return want, nil
	}
	const waiters = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	reports := make([]system.Report, waiters)
	errs := make([]error, waiters)
	// Leader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reports[0], outcomes[0], errs[0] = c.GetOrRun(context.Background(), key, runner)
	}()
	<-started
	// Joiners: the leader is mid-run, so all of these must share it.
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], outcomes[i], errs[i] = c.GetOrRun(context.Background(), key,
				func(context.Context) (system.Report, error) {
					t.Error("joiner runner must not execute")
					return system.Report{}, nil
				})
		}()
	}
	// Joiners must have registered as shared before the leader completes.
	for c.Stats().Shared != waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("runner ran %d times, want 1", n)
	}
	var miss, shared int
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Fatalf("waiter %d report mismatch", i)
		}
		switch outcomes[i] {
		case OutcomeMiss:
			miss++
		case OutcomeShared:
			shared++
		}
	}
	if miss != 1 || shared != waiters-1 {
		t.Fatalf("outcomes: %d miss, %d shared", miss, shared)
	}
}

func TestSharedWaiterCancellation(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(3)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		close(started)
		<-release
		return testReport(3), nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrRun(ctx, key, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentMixedKeys exercises the cache under -race: many goroutines,
// overlapping keys, simultaneous memory/disk/flight paths.
func TestConcurrentMixedKeys(t *testing.T) {
	c, _ := New(Options{Dir: t.TempDir(), MaxMemEntries: 4})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tag := uint64(i % 8)
				rep, _, err := c.GetOrRun(context.Background(), testKey(int64(tag)),
					func(context.Context) (system.Report, error) { return testReport(tag), nil })
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Cycles != 1000+tag {
					t.Errorf("wrong report for key %d: cycles %d", tag, rep.Cycles)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTempFilesCleanedOrIgnored pins that a stale temp file never shadows
// or corrupts lookups.
func TestTempFilesCleanedOrIgnored(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(Options{Dir: dir})
	key := testKey(5)
	if err := os.WriteFile(filepath.Join(dir, key.ID()+".tmp-stale"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := c.GetOrRun(context.Background(), key,
		func(context.Context) (system.Report, error) { return testReport(5), nil })
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("outcome %v err %v", outcome, err)
	}
}
