package expt

import (
	"context"
	"encoding/json"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/runcache"
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

// TestRunJobsBatchedMatchesSerial pins the harness half of the batching
// contract: runJobs with opt.Batch > 1 must return reports byte-identical
// to the serial path, in submission order, at every worker count — the
// grouping, chunking and scatter must be invisible in the results.
func TestRunJobsBatchedMatchesSerial(t *testing.T) {
	opt := core.RunOptions{Insts: 15_000}
	jobs := batchTestJobs(opt)

	opt.Workers = 1
	want, err := runJobs(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make([][]byte, len(want))
	for i := range want {
		b, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[i] = b
	}

	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{2, 3, 16} {
			bo := opt
			bo.Workers = workers
			bo.Batch = batch
			got, err := runJobs(context.Background(), jobs, bo)
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d batch=%d: %d reports, want %d", workers, batch, len(got), len(want))
			}
			for i := range got {
				b, err := json.Marshal(got[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(b) != string(wantBytes[i]) {
					t.Errorf("workers=%d batch=%d: job %d report differs from serial", workers, batch, i)
				}
			}
		}
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

	opt.Workers = 1
	want, err := runJobs(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	bo := opt
	bo.Workers = 4
	bo.Batch = 8
	got, err := runJobs(context.Background(), jobs, bo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wb, _ := json.Marshal(want[i])
		gb, _ := json.Marshal(got[i])
		if string(wb) != string(gb) {
			t.Errorf("job %d: sampled batched report differs from serial", i)
		}
	}
}

// TestRunJobsBatchedCache exercises the batch/runcache composition at the
// harness level: a second batched pass over the same jobs must serve every
// member from the cache (no new misses) and return identical bytes.
func TestRunJobsBatchedCache(t *testing.T) {
	cache, err := runcache.New(runcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.RunOptions{Insts: 10_000, Workers: 2, Batch: 4, Cache: cache}
	base := config.Base()
	jobs := crossJobs(
		[]workload.Profile{workload.SPECint95()},
		[]config.Config{base, base.WithIssueWidth(2), base.WithSmallBHT()}, opt)

	first, err := runJobs(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != uint64(len(jobs)) {
		t.Fatalf("first pass misses = %d, want %d", got, len(jobs))
	}
	second, err := runJobs(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Misses != uint64(len(jobs)) {
		t.Errorf("second pass added misses: %d total, want %d", s.Misses, len(jobs))
	}
	if s.Hits() < uint64(len(jobs)) {
		t.Errorf("second pass hits = %d, want >= %d", s.Hits(), len(jobs))
	}
	for i := range first {
		fb, _ := json.Marshal(first[i])
		sb, _ := json.Marshal(second[i])
		if string(fb) != string(sb) {
			t.Errorf("job %d: cache-served report differs from simulated", i)
		}
	}
}
