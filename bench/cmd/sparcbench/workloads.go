package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// sizes fixes how much work each workload does. full is what the
// benchmark measures; short is the smoke-test scale.
type sizes struct {
	upInsts     int // records per up-full trace file
	smpCPUs     int
	smpInsts    int // records per CPU per smp-tpcc16 run
	sweepInsts  int // instructions per sweep-sampled run
	sweepSample config.Sampling
	svcInsts    int // instructions per service-mix run
	hotKeys     int
	setups      int // set-ups per run; setup_s is their median
}

var (
	fullSizes = sizes{
		upInsts: 120_000, smpCPUs: 16, smpInsts: 30_000,
		sweepInsts:  200_000,
		sweepSample: config.Sampling{IntervalInsts: 40_000, WarmupInsts: 2_000, MeasureInsts: 3_000},
		svcInsts:    20_000, hotKeys: 32, setups: 3,
	}
	shortSizes = sizes{
		upInsts: 4_000, smpCPUs: 4, smpInsts: 2_000,
		sweepInsts:  12_000,
		sweepSample: config.Sampling{IntervalInsts: 4_000, WarmupInsts: 500, MeasureInsts: 500},
		svcInsts:    2_000, hotKeys: 8, setups: 1,
	}
)

// simSeeds derives n distinct, non-zero simulation seeds from the
// benchmark seed (RunOptions treats seed 0 as "default").
func simSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = seed*16 + 1 + int64(k)
	}
	return out
}

// sweepConfigs is the paper-style design neighbourhood of the base
// machine: one variant per section 4 study.
func sweepConfigs() []config.Config {
	b := config.Base()
	return []config.Config{b, b.WithIssueWidth(2), b.WithIssueWidth(6), b.WithSmallBHT(),
		b.WithSmallL1(), b.WithOffChipL2(4), b.WithoutPrefetch(), b.WithOneRS()}
}

func mustModel(cfg config.Config) *core.Model {
	m, err := core.NewModel(cfg)
	if err != nil {
		panic(err) // the configurations above are valid by construction
	}
	return m
}

// stream is one per-CPU trace a trace-driven workload writes in set-up.
type stream struct {
	p    workload.Profile
	seed int64
	cpu  int
	path string
}

// writeTraces generates and writes every stream as a gzip trace file of n
// records, in parallel over the host's CPUs.
func writeTraces(ctx context.Context, streams []stream, n int) error {
	jobs := make([]func(context.Context) error, len(streams))
	for i, s := range streams {
		jobs[i] = func(context.Context) error { return writeTrace(s, n) }
	}
	return sched.DoCtx(ctx, sched.Options{}, jobs...)
}

func writeTrace(s stream, n int) error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	gz := gzip.NewWriter(f)
	w, err := trace.NewWriterCount(gz, uint64(n))
	if err != nil {
		return err
	}
	src := trace.NewLimitSource(workload.New(s.p, s.seed, s.cpu), n)
	var r trace.Record
	for src.Next(&r) {
		if err := w.Write(&r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return f.Close()
}

// replay runs one trace-driven simulation from gzip trace files, one per
// CPU, through RunSourcesContext: the paper's trace-driven path.
func replay(ctx context.Context, sc scope, col *obs.Collector, m *core.Model, label string, paths []string, insts int) (system.Report, error) {
	_, endOpen := sc.begin("trace.open")
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	readers := make([]*trace.Reader, len(paths))
	srcs := make([]trace.Source, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			endOpen()
			return system.Report{}, err
		}
		files = append(files, f)
		if readers[i], err = trace.OpenReader(f); err != nil {
			endOpen()
			return system.Report{}, fmt.Errorf("%s: %w", p, err)
		}
		srcs[i] = readers[i]
	}
	endOpen()
	var rep system.Report
	err := coreCall(sc, "core.run", col, func() (err error) {
		rep, err = m.RunSourcesContext(ctx, label, srcs, core.RunOptions{Insts: insts, Workers: 1, Obs: col})
		return err
	})
	if err != nil {
		return rep, err
	}
	for i, rd := range readers {
		if err := rd.Err(); err != nil {
			return rep, fmt.Errorf("%s: %w", paths[i], err)
		}
	}
	return rep, nil
}

// sameDigest checks that a differential run reproduced a measured op's
// report.
func sameDigest(name string, rep system.Report, err error, want []string, idx int) check {
	if err != nil {
		return check{name, err}
	}
	if idx >= len(want) {
		return check{name, errors.New("no measured report to compare with")}
	}
	d, derr := reportDigest(&rep)
	if derr != nil {
		return check{name, derr}
	}
	if d != want[idx] {
		return check{name, errors.New("report differs from the measured op's")}
	}
	return check{name, nil}
}

// upFullPlan: the five paper UP profiles on the base machine, replayed
// from gzip trace files written in set-up (three seeds each), serially
// and uncached. The OoO core does most of the work; trace decode stands
// in for generation; runcache, server and coherence are bypassed.
func upFullPlan(e *env) *simPlan {
	n := e.sizes.upInsts
	seeds := simSeeds(e.seed, 3)
	profiles := workload.UPProfiles()
	m := mustModel(config.Base())
	var streams []stream
	for _, p := range profiles {
		for _, s := range seeds {
			streams = append(streams, stream{p, s, 0, filepath.Join(e.work, fmt.Sprintf("%s-%d.trc.gz", slug(p.Name), s))})
		}
	}
	label := func(p workload.Profile, seed int64) string { return fmt.Sprintf("%s/%d", p.Name, seed) }
	plan := &simPlan{
		workers:      1,
		setup:        func(ctx context.Context) error { return writeTraces(ctx, streams, n) },
		notOnPath:    []string{"core.ff_", "core.sampled_cpi_err_pct", "runcache.", "server.", "gateway."},
		frontend:     "trace.decode_ns_per_rec",
		frontendRecs: float64(n),
	}
	for _, s := range streams {
		plan.ops = append(plan.ops, simOp{label: label(s.p, s.seed), insts: float64(n),
			run: func(ctx context.Context, sc scope, col *obs.Collector) ([]system.Report, error) {
				rep, err := replay(ctx, sc, col, m, s.p.Name, []string{s.path}, n)
				return []system.Report{rep}, err
			}})
	}
	// A trace-file run must equal the generator-driven run of the same
	// stream.
	plan.verify = func(ctx context.Context, got map[string][]string) []check {
		var out []check
		for _, p := range profiles {
			rep, err := m.RunContext(ctx, p, core.RunOptions{Insts: n, Seed: seeds[0], Workers: 1})
			out = append(out, sameDigest("file vs generator "+label(p, seeds[0]), rep, err, got[label(p, seeds[0])], 0))
		}
		return out
	}
	plan.layers = func(ctx context.Context, lm map[string]float64, _ []opOut) error {
		if err := fanoutPass(lm, profiles[:1], seeds[0], n, 8); err != nil {
			return err
		}
		return standardPasses(ctx, lm, profiles, seeds[0], 1, n, []config.Config{config.Base()}, profiles)
	}
	return plan
}

// smpPlan: TPC-C on the paper's 16-processor SMP, replayed from per-CPU
// trace files. CPI is high, so most CPU-cycles commit nothing and the
// coherence/memory/system tick loop dominates.
func smpPlan(e *env) *simPlan {
	cpus, n := e.sizes.smpCPUs, e.sizes.smpInsts
	seeds := simSeeds(e.seed, 2)
	p := workload.TPCC16P()
	m := mustModel(config.Base().WithCPUs(cpus))
	var streams []stream
	paths := make(map[int64][]string)
	for _, s := range seeds {
		for c := 0; c < cpus; c++ {
			path := filepath.Join(e.work, fmt.Sprintf("tpcc16p-%d-cpu%d.trc.gz", s, c))
			streams = append(streams, stream{p, s, c, path})
			paths[s] = append(paths[s], path)
		}
	}
	label := func(seed int64) string { return fmt.Sprintf("%s/%d", p.Name, seed) }
	plan := &simPlan{
		workers:      1,
		setup:        func(ctx context.Context) error { return writeTraces(ctx, streams, n) },
		notOnPath:    []string{"core.ff_", "core.sampled_cpi_err_pct", "runcache.", "server.", "gateway."},
		frontend:     "trace.decode_ns_per_rec",
		frontendRecs: float64(cpus * n),
	}
	for _, s := range seeds {
		plan.ops = append(plan.ops, simOp{label: label(s), insts: float64(cpus * n),
			run: func(ctx context.Context, sc scope, col *obs.Collector) ([]system.Report, error) {
				rep, err := replay(ctx, sc, col, m, p.Name, paths[s], n)
				return []system.Report{rep}, err
			}})
	}
	plan.verify = func(ctx context.Context, got map[string][]string) []check {
		rep, err := m.RunContext(ctx, p, core.RunOptions{Insts: n, Seed: seeds[0], Workers: 1})
		return []check{sameDigest("file vs generator "+label(seeds[0]), rep, err, got[label(seeds[0])], 0)}
	}
	plan.layers = func(ctx context.Context, lm map[string]float64, _ []opOut) error {
		if err := fanoutPass(lm, []workload.Profile{p}, seeds[0], n, 8); err != nil {
			return err
		}
		// The analytic tier is calibrated for uniprocessors: price TPC-C on
		// the UP base machine.
		return standardPasses(ctx, lm, []workload.Profile{p}, seeds[0], min(cpus, 2), n,
			[]config.Config{config.Base()}, []workload.Profile{workload.TPCC()})
	}
	return plan
}

// sweepPlan: the 8-configuration design neighbourhood × the five UP
// profiles × two seeds, sampled, one core.RunBatch per (profile, seed)
// fanned out over sched with one worker per host CPU. Generation, the
// shared fanout and functional fast-forward do most of the work. Set-up
// runs the full-detail base-machine references the sampling error is
// measured against.
func sweepPlan(e *env) *simPlan {
	cfgs := sweepConfigs()
	profiles := workload.UPProfiles()
	seeds := simSeeds(e.seed, 2)
	opt := core.RunOptions{Insts: e.sizes.sweepInsts, Workers: 1, Sample: e.sizes.sweepSample}
	base := mustModel(cfgs[0])
	refs := make([]system.Report, len(profiles))
	label := func(p workload.Profile, seed int64) string { return fmt.Sprintf("%s/%d", p.Name, seed) }
	plan := &simPlan{
		workers:      0, // sched.Workers: one per host CPU
		notOnPath:    []string{"runcache.", "server.", "gateway."},
		frontend:     "workload.gen_ns_per_inst",
		frontendRecs: float64(opt.Insts), // one generator per batch, shared by the members
	}
	plan.setup = func(ctx context.Context) error {
		reps, err := sched.MapCtx(ctx, len(profiles), sched.Options{}, func(ctx context.Context, i int) (system.Report, error) {
			o := opt
			o.Sample, o.Seed = config.Sampling{}, seeds[0]
			return base.RunContext(ctx, profiles[i], o)
		})
		copy(refs, reps)
		return err
	}
	plan.refCPI = func() map[string]float64 {
		out := make(map[string]float64, len(refs))
		for i, p := range profiles {
			out[p.Name] = refs[i].Summary().CPI
		}
		return out
	}
	plan.setupDigests = func() []string {
		var ds []string
		for i := range refs {
			d, err := reportDigest(&refs[i])
			if err != nil {
				d = "unencodable: " + err.Error()
			}
			ds = append(ds, d)
		}
		return ds
	}
	for _, s := range seeds {
		for _, p := range profiles {
			plan.ops = append(plan.ops, simOp{label: label(p, s), insts: float64(len(cfgs) * opt.Insts),
				run: func(ctx context.Context, sc scope, col *obs.Collector) ([]system.Report, error) {
					o := opt
					o.Seed, o.Obs = s, col
					var reps []system.Report
					var errs []error
					coreCall(sc, "core.batch", col, func() error {
						reps, errs = core.RunBatch(ctx, cfgs, p, o)
						return nil
					})
					return reps, errors.Join(errs...)
				}})
		}
	}
	plan.verify = func(ctx context.Context, got map[string][]string) []check {
		var out []check
		for i := range refs {
			if err := conserve(&refs[i]); err != nil {
				out = append(out, check{"reference " + profiles[i].Name, err})
			}
		}
		out = append(out, e.referenceCheck(profiles, refs))
		// A batched member equals its serial run.
		k := int(uint64(e.seed) % uint64(len(cfgs)))
		p := profiles[k%len(profiles)]
		o := opt
		o.Seed = seeds[1]
		rep, err := mustModel(cfgs[k]).RunContext(ctx, p, o)
		out = append(out, sameDigest(fmt.Sprintf("batched vs serial %s member %d", label(p, seeds[1]), k),
			rep, err, got[label(p, seeds[1])], k))
		return out
	}
	plan.layers = func(ctx context.Context, lm map[string]float64, traced []opOut) error {
		// The base machine's (member 0) sampled CPI error at seed 0 against
		// its full-detail reference, averaged over the profiles in order.
		var sum, n float64
		for i, p := range profiles {
			for _, b := range traced {
				if b.op.label == label(p, seeds[0]) {
					ref := refs[i].Summary().CPI
					sum += 100 * math.Abs(b.reps[0].Summary().CPI-ref) / ref
					n++
					break
				}
			}
		}
		lm["core.sampled_cpi_err_pct"] = safeDiv(sum, n)
		if err := fanoutPass(lm, profiles, seeds[0], opt.Insts, len(cfgs)); err != nil {
			return err
		}
		return standardPasses(ctx, lm, profiles, seeds[0], 1, opt.Insts, cfgs, profiles)
	}
	return plan
}

// standardPasses runs the standalone layer passes every simulation
// workload reports on its own profiles: generation of n records per
// profile and CPU, gzip trace encode and OpenReader decode of the first
// CPU's records, and the analytic estimator over cfgs × est.
func standardPasses(ctx context.Context, lm map[string]float64, profiles []workload.Profile, seed int64, cpus, n int,
	cfgs []config.Config, est []workload.Profile) error {
	var genNS, encNS, decNS, genRecs, codecRecs float64
	for _, p := range profiles {
		for c := 0; c < cpus; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g := workload.New(p, seed, c)
			rs := make([]trace.Record, n)
			t0 := time.Now()
			for i := range rs {
				g.Next(&rs[i])
			}
			genNS += float64(time.Since(t0).Nanoseconds())
			genRecs += float64(n)
			if c > 0 {
				continue
			}
			b, ns, err := encode(rs)
			if err != nil {
				return err
			}
			encNS += ns
			t0 = time.Now()
			rd, err := trace.OpenReader(bytes.NewReader(b))
			if err != nil {
				return err
			}
			var r trace.Record
			got := 0
			for rd.Next(&r) {
				got++
			}
			decNS += float64(time.Since(t0).Nanoseconds())
			if err := rd.Err(); err != nil {
				return err
			}
			if got != n {
				return fmt.Errorf("decoded %d records, encoded %d", got, n)
			}
			codecRecs += float64(n)
		}
	}
	lm["workload.gen_ns_per_inst"] = genNS / genRecs
	lm["trace.encode_ns_per_rec"] = encNS / codecRecs
	lm["trace.decode_ns_per_rec"] = decNS / codecRecs
	us, err := estimatePass(cfgs, est)
	lm["analytic.estimate_us_p50"] = us
	return err
}

// encode writes records as a gzip trace in memory and returns the bytes
// and the nanoseconds it took.
func encode(rs []trace.Record) ([]byte, float64, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	gz := gzip.NewWriter(&buf)
	w, err := trace.NewWriterCount(gz, uint64(len(rs)))
	if err != nil {
		return nil, 0, err
	}
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			return nil, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, 0, err
	}
	if err := gz.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), float64(time.Since(t0).Nanoseconds()), nil
}

// fanoutPass streams each profile's records through a trace.Fanout with
// the given number of cursors, draining every cursor each round the way
// the lockstep batch driver does, and reports ns per record served.
func fanoutPass(lm map[string]float64, profiles []workload.Profile, seed int64, n, cursors int) error {
	var ns, served float64
	for _, p := range profiles {
		rs := trace.Collect(trace.NewLimitSource(workload.New(p, seed, 0), n), 0)
		f := trace.NewFanout(trace.NewSliceSource(rs), 8192, cursors)
		var r trace.Record
		t0 := time.Now()
		for {
			f.Fill()
			drained := true
			for c := 0; c < cursors; c++ {
				cur := f.Cursor(c)
				for k := cur.Buffered(); k > 0; k-- {
					cur.Next(&r)
					served++
				}
				drained = drained && cur.Buffered() == 0
			}
			if f.EOF() && drained {
				break
			}
		}
		ns += float64(time.Since(t0).Nanoseconds())
		if got := f.Served(); got != uint64(len(rs)*cursors) {
			return fmt.Errorf("fanout served %d records, want %d", got, len(rs)*cursors)
		}
	}
	lm["trace.fanout_ns_per_rec"] = ns / served
	return nil
}

// estimatePass times in-process analytic estimates over the configs and
// profiles and returns the median in microseconds.
func estimatePass(cfgs []config.Config, profiles []workload.Profile) (float64, error) {
	cal, err := analytic.Default()
	if err != nil {
		return 0, err
	}
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for _, cfg := range cfgs {
			for _, p := range profiles {
				t0 := time.Now()
				if _, err := cal.Estimate(cfg, p.Name); err != nil {
					return 0, err
				}
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}
	return median(us), nil
}

// slug lowercases a profile name into a file-name fragment.
func slug(name string) string {
	b := []byte(name)
	out := b[:0]
	for _, c := range b {
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		}
	}
	return string(out)
}
