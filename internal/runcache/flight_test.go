package runcache

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"sparc64v/internal/system"
)

// waitRefs spins until key's flight has exactly n waiters, leader
// included.
func waitRefs(c *Cache, key Key, n int) {
	for {
		c.mu.Lock()
		f := c.flights[key.ID()]
		ok := f != nil && f.refs == n
		c.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestPanickingRunnerCompletesFlight: a runner that panics must not leave
// its flight open. A caller that joined it gets ErrAbandoned, the panic
// still reaches the leader's caller, and the next request runs afresh
// instead of waiting on a flight nobody will complete.
func TestPanickingRunnerCompletesFlight(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(21)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
			close(started)
			<-release
			panic("runner blew up")
		})
	}()
	<-started
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrRun(context.Background(), key, nil)
		joined <- err
	}()
	waitRefs(c, key, 2)
	close(release)
	if p := <-recovered; p != "runner blew up" {
		t.Fatalf("leader's caller recovered %v, want the runner's panic", p)
	}
	if err := <-joined; !errors.Is(err, ErrAbandoned) {
		t.Fatalf("joiner err = %v, want ErrAbandoned", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := testReport(21)
	got, outcome, err := c.GetOrRun(ctx, key, func(context.Context) (system.Report, error) { return want, nil })
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("request after the panic: outcome %v err %v, want a fresh run", outcome, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("report mismatch after the panic")
	}
	if s := c.Stats(); s.Errors != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v (want the panic as 1 error, then 1 miss)", s)
	}
}

// TestCancelledLeaderFailsNoJoiner: the leader's own context does not run
// its flight. When the leader's client goes away mid-run, the run goes on
// and every joiner gets the report as OutcomeShared.
func TestCancelledLeaderFailsNoJoiner(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(22)
	want := testReport(22)
	started, release := make(chan struct{}), make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrRun(leaderCtx, key, func(ctx context.Context) (system.Report, error) {
			close(started)
			select {
			case <-release:
				return want, nil
			case <-ctx.Done():
				return system.Report{}, ctx.Err()
			}
		})
		leaderErr <- err
	}()
	<-started

	const joiners = 4
	var wg sync.WaitGroup
	reports := make([]system.Report, joiners)
	outcomes := make([]Outcome, joiners)
	errs := make([]error, joiners)
	for i := range joiners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], outcomes[i], errs[i] = c.GetOrRun(context.Background(), key, nil)
		}()
	}
	waitRefs(c, key, 1+joiners)
	cancelLeader()
	// The leader has left; the joiners keep the run going.
	waitRefs(c, key, joiners)
	close(release)
	wg.Wait()
	for i := range joiners {
		if errs[i] != nil || outcomes[i] != OutcomeShared {
			t.Fatalf("joiner %d: outcome %v err %v, want the shared report", i, outcomes[i], errs[i])
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Fatalf("joiner %d: report mismatch", i)
		}
	}
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader err = %v, want its completed run", err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Errors != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestLastWaiterLeavingCancelsRun: the run is cancelled only when its
// last waiter, leader included, has left. A cancelled run is not cached,
// and the next request runs again.
func TestLastWaiterLeavingCancelsRun(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(23)
	started, cancelled := make(chan struct{}), make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	joinerCtx, cancelJoiner := context.WithCancel(context.Background())
	defer cancelJoiner()
	leaderErr, joinerErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := c.GetOrRun(leaderCtx, key, func(ctx context.Context) (system.Report, error) {
			close(started)
			<-ctx.Done()
			close(cancelled)
			return system.Report{}, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started
	go func() {
		_, _, err := c.GetOrRun(joinerCtx, key, nil)
		joinerErr <- err
	}()
	waitRefs(c, key, 2)

	cancelLeader()
	waitRefs(c, key, 1)
	select {
	case <-cancelled:
		t.Fatal("run cancelled while a joiner still waited for it")
	default:
	}
	cancelJoiner()
	if err := <-joinerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("run not cancelled after its last waiter left")
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled run was cached: %d entries", c.Len())
	}
	if _, outcome, err := c.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		return testReport(23), nil
	}); err != nil || outcome != OutcomeMiss {
		t.Fatalf("next request: outcome %v err %v, want a fresh run", outcome, err)
	}
}

// TestClaimDuplicateKeys: a key listed twice in one claim is one flight.
// The first ticket leads it; the second joins it and gets its own copy of
// the report once the first is completed.
func TestClaimDuplicateKeys(t *testing.T) {
	c, _ := New(Options{})
	key := testKey(24)
	ts := c.Claim(context.Background(), []Key{key, testKey(25), key})
	if ts[0].Outcome != OutcomeMiss || ts[1].Outcome != OutcomeMiss || ts[2].Outcome != OutcomeShared {
		t.Fatalf("outcomes %v %v %v, want miss, miss, dedup", ts[0].Outcome, ts[1].Outcome, ts[2].Outcome)
	}
	rep := testReport(24)
	c.Complete(&ts[0], rep, nil)
	c.Complete(&ts[1], testReport(25), nil)
	got, err := c.Wait(context.Background(), &ts[2])
	if err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("joined ticket: err %v, report match %v", err, reflect.DeepEqual(got, rep))
	}
	if s := c.Stats(); s.Misses != 2 || s.Shared != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// Neither the leader's report nor the joiner's copy aliases the cache.
	rep.CPUs[0].Core.Cycles = 0
	got.CPUs[1].Core.Cycles = 0
	if hit, ok := lookup(c, key); !ok || !reflect.DeepEqual(hit, testReport(24)) {
		t.Fatal("cache entry aliased by a caller's report")
	}
}
