package expt

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// batchTestJobs builds a study-shaped job set: several uniprocessor
// workloads across a config neighborhood (each workload forms one BatchKey
// group), plus one multiprocessor job with scaled options (its own group),
// plus a duplicated point (same key twice — the runcache dedup case).
func batchTestJobs(opt core.RunOptions) []core.Job {
	base := config.Base()
	cfgs := []config.Config{base, base.WithIssueWidth(2), base.WithSmallBHT(), base.WithoutPrefetch()}
	profiles := []workload.Profile{workload.SPECint95(), workload.SPECfp95(), workload.TPCC()}
	jobs := crossJobs(profiles, cfgs, opt)
	jobs = append(jobs, core.Job{Config: base.WithCPUs(2), Profile: workload.TPCC16P(), Opt: mpOpt(opt)})
	jobs = append(jobs, core.Job{Config: base, Profile: workload.SPECint95(), Opt: opt}) // duplicate point
	return jobs
}

// serialBytes runs every job on its own through Model.RunContext — no
// scheduler, no batching — and returns each report marshaled: the
// unbatched reference the batched harness must reproduce.
func serialBytes(t *testing.T, jobs []core.Job) []string {
	t.Helper()
	out := make([]string, len(jobs))
	for i, j := range jobs {
		m, err := core.NewModel(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.RunContext(context.Background(), j.Profile, j.Opt)
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// sameBytes fails t for every report in got that differs from its serial
// reference in want.
func sameBytes(t *testing.T, what string, got []system.Report, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range got {
		b, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want[i] {
			t.Errorf("%s: job %d report differs from its serial run", what, i)
		}
	}
}

// batchWorkers are the worker counts the batching tests run at. Each
// changes how RunJobs cuts same-trace groups into lockstep chunks.
var batchWorkers = []int{1, 4, 8}

// TestRunJobsBatchedMatchesSerial pins the harness half of the batching
// contract: runJobs, which batches same-trace jobs on its own, must return
// reports byte-identical to each job's own serial run, in submission
// order, at every worker count — the grouping, chunking and scatter must
// be invisible in the results.
func TestRunJobsBatchedMatchesSerial(t *testing.T) {
	opt := core.RunOptions{Insts: 15_000}
	jobs := batchTestJobs(opt)
	want := serialBytes(t, jobs)
	for _, workers := range batchWorkers {
		opt.Workers = workers
		got, err := runJobs(context.Background(), jobs, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameBytes(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestRunJobsBatchedSampled pins the same contract for sampled runs: the
// lockstep fast-forward/measure schedule must not perturb the reports.
func TestRunJobsBatchedSampled(t *testing.T) {
	opt := core.RunOptions{Insts: 60_000,
		Sample: config.Sampling{IntervalInsts: 15_000, WarmupInsts: 1_000, MeasureInsts: 2_000}}
	base := config.Base()
	jobs := crossJobs(
		[]workload.Profile{workload.SPECint2000(), workload.TPCC()},
		[]config.Config{base, base.WithSmallL1(), base.WithOffChipL2(2)}, opt)
	want := serialBytes(t, jobs)
	for _, workers := range batchWorkers {
		opt.Workers = workers
		got, err := runJobs(context.Background(), jobs, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameBytes(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestRunJobsBatchedCache exercises the batch/runcache composition at the
// harness level: a batched pass simulates each job once into the cache,
// and a second pass over the same jobs serves every member from the cache
// (no new misses), both with the serial bytes.
func TestRunJobsBatchedCache(t *testing.T) {
	profiles := []workload.Profile{workload.SPECint95()}
	base := config.Base()
	cfgs := []config.Config{base, base.WithIssueWidth(2), base.WithSmallBHT()}
	want := serialBytes(t, crossJobs(profiles, cfgs, core.RunOptions{Insts: 10_000}))
	for _, workers := range batchWorkers {
		cache, err := runcache.New(runcache.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		opt := core.RunOptions{Insts: 10_000, Workers: workers, Cache: cache}
		jobs := crossJobs(profiles, cfgs, opt)
		for pass := 1; pass <= 2; pass++ {
			got, err := runJobs(context.Background(), jobs, opt)
			if err != nil {
				t.Fatalf("workers=%d pass %d: %v", workers, pass, err)
			}
			sameBytes(t, fmt.Sprintf("workers=%d pass %d", workers, pass), got, want)
			if pass == 1 && cache.Stats().Hits() != 0 {
				t.Errorf("workers=%d: first pass took %d cache hits", workers, cache.Stats().Hits())
			}
		}
		s := cache.Stats()
		if s.Misses != uint64(len(jobs)) {
			t.Errorf("workers=%d: %d misses over two passes, want %d", workers, s.Misses, len(jobs))
		}
		if s.Hits() < uint64(len(jobs)) {
			t.Errorf("workers=%d: second pass hits = %d, want >= %d", workers, s.Hits(), len(jobs))
		}
	}
}
