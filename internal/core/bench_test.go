package core

// Full-run vs sampled-run benchmarks: the pair that quantifies the sampled
// simulation speedup on identical inputs, plus a multiprocessor full run.
// The benchdiff gate (scripts/benchdiff.sh) tracks them all, so a
// regression that erodes the fast-forward advantage — or an allocation
// added to any path — fails CI.
// The headline multiprocessor speedup artifact (BENCH_*.json) is produced
// from these numbers plus the MP validation run in DESIGN.md.

import (
	"bytes"
	"compress/gzip"
	"context"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// benchSampleSchedule is the benchmark schedule: 12.5% of each interval in
// detailed mode, matching the validation schedules in EXPERIMENTS.md.
func benchSampleSchedule() config.Sampling {
	return config.Sampling{IntervalInsts: 40_000, WarmupInsts: 2_000, MeasureInsts: 3_000}
}

func benchRun(b *testing.B, cfg config.Config, p workload.Profile, opt RunOptions) {
	b.Helper()
	b.ReportAllocs()
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.RunContext(context.Background(), p, opt)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(r.Committed)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkFullRun(b *testing.B) {
	benchRun(b, config.Base(), workload.SPECint95(), RunOptions{Insts: 120_000})
}

func BenchmarkSampledRun(b *testing.B) {
	benchRun(b, config.Base(), workload.SPECint95(), RunOptions{Insts: 120_000, Sample: benchSampleSchedule()})
}

// BenchmarkSMPRun is the multiprocessor full run: TPC-C 16P on four CPUs,
// 30k instructions each. Its CPI is high, so most CPU-cycles are quiet:
// this is where the event-driven cycle loop's skipping shows.
func BenchmarkSMPRun(b *testing.B) {
	benchRun(b, config.Base().WithCPUs(4), workload.TPCC16P(), RunOptions{Insts: 30_000})
}

// benchSweep runs the stock 8-configuration neighborhood (the batch tests'
// batchNeighborhood) against one sampled trace, either as eight serial runs
// — each re-generating the trace — or as one lockstep batch sharing a
// single decoded stream. Sampled mode is where batching pays: the detailed
// windows are a small slice of each run, so the per-member cost is
// dominated by exactly the frontend work the batch amortizes. The
// Serial/Batched pair in the benchdiff baseline records the speedup; the
// gate fails if a regression erodes it back toward serial cost.
func benchSweep(b *testing.B, batch bool) {
	b.Helper()
	b.ReportAllocs()
	cfgs := batchNeighborhood()
	p := workload.SPECint95()
	opt := RunOptions{Insts: 400_000, Sample: benchSampleSchedule()}
	total := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			reps, errs := RunBatch(context.Background(), cfgs, p, opt)
			for j := range reps {
				if errs[j] != nil {
					b.Fatal(errs[j])
				}
				total += int64(reps[j].Committed)
			}
			continue
		}
		for _, cfg := range cfgs {
			m, err := NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := m.RunContext(context.Background(), p, opt)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(r.Committed)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}

func BenchmarkSerialSweep(b *testing.B)  { benchSweep(b, false) }
func BenchmarkBatchedSweep(b *testing.B) { benchSweep(b, true) }

// BenchmarkReplayRun is the trace-driven path: TPC-C 16P on four CPUs,
// 30k records each, replayed from in-memory gzip trace files through
// RunSourcesContext. It covers what BenchmarkSMPRun's generators bypass:
// OpenReader's inflate and parse, and the read-ahead that overlaps them
// with the machine.
func BenchmarkReplayRun(b *testing.B) {
	const cpus, insts = 4, 30_000
	p := workload.TPCC16P()
	files := make([][]byte, cpus)
	for c, g := range workload.NewMP(p, 42, cpus) {
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		w, err := trace.NewWriterCount(gz, insts)
		if err != nil {
			b.Fatal(err)
		}
		src := trace.NewLimitSource(g, insts)
		var r trace.Record
		for src.Next(&r) {
			if err := w.Write(&r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			b.Fatal(err)
		}
		files[c] = buf.Bytes()
	}
	m, err := NewModel(config.Base().WithCPUs(cpus))
	if err != nil {
		b.Fatal(err)
	}
	opt := RunOptions{Insts: insts, Workers: 1}
	total := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readers := make([]*trace.Reader, cpus)
		srcs := make([]trace.Source, cpus)
		for c, f := range files {
			if readers[c], err = trace.OpenReader(bytes.NewReader(f)); err != nil {
				b.Fatal(err)
			}
			srcs[c] = readers[c]
		}
		r, err := m.RunSourcesContext(context.Background(), p.Name, srcs, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, rd := range readers {
			if err := rd.Err(); err != nil {
				b.Fatal(err)
			}
		}
		total += int64(r.Committed)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-instrs/s")
}
