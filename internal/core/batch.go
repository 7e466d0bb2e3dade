package core

// The run engine.
//
// Every simulation — serial or batched, full or sampled — is advanced by
// one loop, drive. A run is a member with three operations: need (the trace
// records its next step reads), step (one bounded action) and finish (its
// Report and error). A full run (fullRun) steps the detailed machine a
// fixed number of cycles; a sampled run (sampledRun, sample.go) steps one
// fast-forward chunk or one detailed window.
//
// A serial run is a batch of one over its own sources: no ring, no
// per-round checks, a full run stepping system.PollStride cycles between
// context polls. A lockstep batch (RunBatch) is the same loop over shared
// sources: a parameter sweep runs many nearby configurations against the
// same workload trace, so one trace.Fanout per CPU stream decodes the trace
// once and feeds every member's machine through per-member cursors. Each
// round refills the rings and steps every member whose next step the rings
// can feed. Per-member mutable state stays inside each member's
// system.System, so members are independent: each produces a Report
// byte-identical to its own serial run (pinned by TestRunBatchMatchesSerial),
// finishes, caps or errors individually, and is cached individually.
//
// Scheduling rule: a member steps in a round only if none of its cursors is
// starved for its next step's demand (a full member's batchStride cycles ×
// fetch width, a sampled member's chunk or window). The ring's back-pressure
// bounds how far members drift apart in the trace; after each Fill the
// slowest member always sees a full ring, so it always advances — a batch
// cannot deadlock on a single stream. On multi-CPU machines, mutual
// starvation across *different* streams is theoretically possible (members'
// relative progress would have to invert by a whole ring depth on two
// streams at once); a round that advances no member peels one member off
// and drives it again as a batch of one over fresh sources, which restores
// progress while keeping results exact.

import (
	"context"
	"fmt"
	"strconv"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// batchStride is how many detailed cycles a full member advances per
// lockstep round. Small enough that members stay close in the trace
// (bounding ring occupancy skew), large enough that round bookkeeping
// vanishes against ~stride×CPUs Tick calls.
const batchStride = 256

// batchRingDepth sizes the full-run shared ring per CPU stream, in
// records: it must cover batchStride cycles of maximum fetch demand for
// the slowest member (stride × fetch width = 2048), and every extra slot is
// drift allowance for fast members. 8K records ≈ 320 KiB per stream.
const batchRingDepth = 8192

// Simulation meter: committed instructions, cycles and runs actually
// simulated in this process (cache-served results do not count; a sampled
// run counts its detailed instructions and cycles). cmd/sweep reports
// effective sim-instrs/s from the deltas; simd exposes them on /metrics.
var (
	simInstrs = obs.Default().Counter("sparc64v_simulated_instructions_total",
		"Instructions committed by simulations in this process.")
	simCycles = obs.Default().Counter("sparc64v_simulated_cycles_total",
		"Cycles simulated in this process.")
	simRuns = obs.Default().Counter("sparc64v_simulated_runs_total",
		"Simulations completed in this process.")
)

// meter counts one finished simulation.
func meter(instrs, cycles uint64) {
	simInstrs.Add(instrs)
	simCycles.Add(cycles)
	simRuns.Inc()
}

// Batch metrics (process-wide registry, the runcache/sched idiom). They
// count lockstep batches of two or more members only. batchOccupancy is a
// live gauge — members enter at batch start and leave one by one as they
// finish — so a scrape shows how much lockstep parallelism the process is
// sustaining right now.
var (
	batchRuns = obs.Default().Counter("sparc64v_batch_runs_total",
		"Lockstep batches executed.")
	batchMembersTotal = obs.Default().Counter("sparc64v_batch_members_total",
		"Members simulated by lockstep batches (cache-served members excluded).")
	batchCacheSkips = obs.Default().Counter("sparc64v_batch_cache_skips_total",
		"Batch members served from the run cache before streaming began.")
	batchStallRestarts = obs.Default().Counter("sparc64v_batch_stall_restarts_total",
		"Members re-run serially after a lockstep round advanced nobody (cross-stream starvation).")
	batchOccupancy = obs.Default().Gauge("sparc64v_batch_occupancy",
		"Members currently advancing in lockstep batches.")
	batchRecordsStreamed = obs.Default().Counter("sparc64v_batch_records_streamed_total",
		"Trace records decoded once by batch frontends.")
	batchRecordsSaved = obs.Default().Counter("sparc64v_batch_records_saved_total",
		"Trace records served from shared rings that serial runs would have re-decoded.")
	batchBytesSaved = obs.Default().Counter("sparc64v_batch_decode_bytes_saved_total",
		"In-memory bytes of trace records the shared decode avoided re-materializing.")
)

// recordBytes prices a saved record for the bytes-saved counter: the
// in-memory record size the frontend would have re-materialized per member.
const recordBytes = 40

// A member is one run the engine advances.
type member interface {
	// need returns which CPU's trace the next step reads (-1: every CPU)
	// and the most records it consumes there.
	need() (cpu, n int)
	// step performs the run's next bounded action and reports whether the
	// run is over.
	step(ctx context.Context) (done bool)
	// finish closes the run out, once: its Report, and its error — a
	// cancellation (cerr non-nil, or one seen while stepping), the cycle
	// cap, or nil.
	finish(cerr error) (system.Report, error)
}

// start builds the run opt asks for over srcs: sampled when opt.Sample is
// enabled, full otherwise; batched marks a lockstep member.
func (m *Model) start(label string, srcs []trace.Source, opt RunOptions, batched bool) (member, error) {
	sp := opt.Obs.StartSpan("run", label)
	if batched {
		sp.Add("batched", 1)
	}
	if opt.Sample.Enabled() {
		r, err := newSampledRun(m, label, srcs, opt, sp)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	cfg := m.cfg
	cfg.WarmupInsts = opt.Warmup
	endBuild := sp.Phase(obs.PhaseBuild)
	sys, err := system.New(cfg, srcs)
	endBuild()
	if err != nil {
		return nil, err
	}
	return &fullRun{m: m, label: label, opt: opt, sp: sp, sys: sys, batched: batched}, nil
}

// fullRun is a full detailed run: each step ticks the machine stride()
// cycles.
type fullRun struct {
	m       *Model
	label   string
	opt     RunOptions
	sp      *obs.Span
	sys     *system.System
	batched bool
	capped  bool
	endSim  func() // closes the open sim phase, if any
}

// stride is the cycles per step: a lockstep member ticks batchStride so it
// stays close to its batch in the trace; a lone run ticks
// system.PollStride, its cancellation stride.
func (r *fullRun) stride() int {
	if r.batched {
		return batchStride
	}
	return system.PollStride
}

func (r *fullRun) need() (int, int) { return -1, r.stride() * r.sys.SourceReadBound(0) }

// step keeps a lone run's sim phase open across its back-to-back steps:
// closing a span phase takes the span's lock, and a lock per step costs
// ~10% under the race detector. A batch member's steps interleave with
// other members', so each is timed on its own.
func (r *fullRun) step(context.Context) bool {
	if r.endSim == nil {
		r.endSim = r.sp.Phase(obs.PhaseSim)
	}
	done, capped := r.sys.Step(r.stride(), r.opt.MaxCycles)
	r.capped = capped
	if r.batched {
		r.closeSim()
	}
	return done || capped
}

func (r *fullRun) closeSim() {
	if r.endSim != nil {
		r.endSim()
		r.endSim = nil
	}
}

func (r *fullRun) finish(cerr error) (system.Report, error) {
	r.closeSim()
	endReport := r.sp.Phase(obs.PhaseReport)
	rep := r.sys.Report(r.label)
	rep.HitCap = r.capped
	meter(rep.Committed, rep.Cycles)
	endReport()
	spanReport(r.sp, rep)
	r.sp.Finish()
	return rep, r.m.runErr(r.label, r.opt, cerr, r.capped)
}

// runErr is a finished run's error: cancelled, capped, or nil.
func (m *Model) runErr(label string, opt RunOptions, cerr error, capped bool) error {
	if cerr != nil {
		return fmt.Errorf("core: %s/%s cancelled: %w", m.cfg.Name, label, cerr)
	}
	if capped {
		return fmt.Errorf("core: %s/%s hit the %d-cycle cap", m.cfg.Name, label, opt.MaxCycles)
	}
	return nil
}

// drive is the run engine: it advances members until each is over and
// returns their reports and errors, index-aligned with members. A nil
// member (one that failed to start) is skipped.
//
// With fans == nil each member reads its own sources and steps back to
// back, with a context poll between steps. With fans, member i reads
// cursor i of every fan; each round refills the rings and steps every
// member whose next step the rings can feed. A round that steps nobody
// peels the first waiting member off and drives it again, as a batch of
// one over the fresh sources restart builds.
func drive(ctx context.Context, members []member, fans []*trace.Fanout, restart func(i int) (member, error)) ([]system.Report, []error) {
	reps := make([]system.Report, len(members))
	errs := make([]error, len(members))
	leave := func(i int) {
		if fans == nil {
			return
		}
		for _, f := range fans {
			f.Cursor(i).Close()
		}
		batchOccupancy.Add(-1)
	}
	finish := func(i int, cerr error) {
		reps[i], errs[i] = members[i].finish(cerr)
		leave(i)
	}
	var live []int
	for i, mb := range members {
		if mb == nil {
			leave(i)
			continue
		}
		live = append(live, i)
	}
	done := ctx.Done()
	for len(live) > 0 {
		if done != nil {
			select {
			case <-done:
				for _, i := range live {
					finish(i, ctx.Err())
				}
				return reps, errs
			default:
			}
		}
		for _, f := range fans {
			f.Fill()
		}
		progressed := false
		next := live[:0]
		for _, i := range live {
			if fans != nil && starved(fans, i, members[i]) {
				next = append(next, i)
				continue
			}
			progressed = true
			if members[i].step(ctx) {
				finish(i, nil)
			} else {
				next = append(next, i)
			}
		}
		live = next
		if !progressed {
			i := live[0]
			live = live[1:]
			leave(i)
			batchStallRestarts.Inc()
			mb, err := restart(i)
			if err != nil {
				errs[i] = err
				continue
			}
			r, e := drive(ctx, []member{mb}, nil, nil)
			reps[i], errs[i] = r[0], e[0]
		}
	}
	return reps, errs
}

// starved reports whether member i's cursors cannot yet feed mb's next
// step.
func starved(fans []*trace.Fanout, i int, mb member) bool {
	cpu, n := mb.need()
	if cpu >= 0 {
		return fans[cpu].Cursor(i).Starved(n)
	}
	for _, f := range fans {
		if f.Cursor(i).Starved(n) {
			return true
		}
	}
	return false
}

// profileSources generates the profile's per-CPU traces for a run.
func profileSources(p workload.Profile, opt RunOptions, cpus int) []trace.Source {
	gens := workload.NewMP(p, opt.Seed, cpus)
	srcs := make([]trace.Source, len(gens))
	for i, g := range gens {
		srcs[i] = trace.NewLimitSource(g, opt.Insts)
	}
	return srcs
}

// ringDepth sizes the shared ring per CPU stream. A sampled member's
// largest single step is a whole detailed window's budget or one
// fast-forward chunk; the ring holds twice that, so the slowest member
// still sees a full ring while others buffer.
func ringDepth(opt RunOptions) int {
	if !opt.Sample.Enabled() {
		return batchRingDepth
	}
	return 2 * max(ffChunk, opt.Sample.WarmupInsts, opt.Sample.MeasureInsts)
}

// runProfile is the one cache path, under RunContext and RunBatch: it runs
// p on every non-nil model, writing each result to reps[i], errs[i]. With
// opt.Cache set, models whose run is already cached are served first, each
// with a span carrying the cached marker. A lone remaining run goes through
// GetOrRun, so concurrent identical runs share one simulation; two or more
// run in lockstep and each success is stored. Failed or cancelled runs are
// never stored.
func runProfile(ctx context.Context, models []*Model, p workload.Profile, opt RunOptions, reps []system.Report, errs []error) {
	keys := make([]*runcache.Key, len(models))
	var live []*Model
	var at []int
	for i, m := range models {
		if m == nil {
			continue
		}
		if opt.Cache != nil {
			// An unhashable configuration (cannot happen for real Configs)
			// runs uncached rather than failing.
			if key, err := m.runKey(p, opt); err == nil {
				keys[i] = &key
				sp := opt.Obs.StartSpan("run", p.Name)
				end := sp.Phase(obs.PhaseCache)
				rep, ok := opt.Cache.Get(key)
				end()
				if ok {
					cachedSpan(sp, rep)
					if len(models) > 1 {
						batchCacheSkips.Inc()
					}
					reps[i] = rep
					continue
				}
			}
		}
		live = append(live, m)
		at = append(at, i)
	}
	switch len(live) {
	case 0:
	case 1:
		m, i := live[0], at[0]
		sim := func(ctx context.Context) (system.Report, error) {
			return m.RunSourcesContext(ctx, p.Name, profileSources(p, opt, m.cfg.CPUs), opt)
		}
		if keys[i] == nil {
			reps[i], errs[i] = sim(ctx)
			return
		}
		sp := opt.Obs.StartSpan("run", p.Name)
		end := sp.Phase(obs.PhaseCache)
		rep, outcome, err := opt.Cache.GetOrRun(ctx, *keys[i], sim)
		end()
		if err == nil && outcome.Cached() {
			cachedSpan(sp, rep)
		}
		reps[i], errs[i] = rep, err
	default:
		r, e := lockstep(ctx, live, p, opt, ringDepth(opt))
		for k, i := range at {
			reps[i], errs[i] = r[k], e[k]
			if e[k] == nil && keys[i] != nil {
				opt.Cache.Put(*keys[i], r[k])
			}
		}
	}
}

// cachedSpan closes a cache-served run's span: the cached marker and the
// served report's counters are the run's whole story. (On a miss the
// simulation publishes its own span and the lookup's span is dropped.)
func cachedSpan(sp *obs.Span, rep system.Report) {
	sp.Add("cached", 1)
	spanReport(sp, rep)
	sp.Finish()
}

// lockstep runs p on two or more models with the same CPU count over one
// decoded trace: one fanout per CPU stream with the given ring depth, one
// cursor per (stream, member).
func lockstep(ctx context.Context, models []*Model, p workload.Profile, opt RunOptions, depth int) ([]system.Report, []error) {
	cpus := models[0].cfg.CPUs
	batchRuns.Inc()
	batchMembersTotal.Add(uint64(len(models)))
	batchOccupancy.Add(int64(len(models)))
	fans := make([]*trace.Fanout, cpus)
	for c, src := range profileSources(p, opt, cpus) {
		fans[c] = trace.NewFanout(src, depth, len(models))
	}
	members := make([]member, len(models))
	startErrs := make([]error, len(models))
	for i, m := range models {
		srcs := make([]trace.Source, cpus)
		for c, f := range fans {
			srcs[c] = f.Cursor(i)
		}
		members[i], startErrs[i] = m.start(p.Name, srcs, opt, true)
	}
	reps, errs := drive(ctx, members, fans, func(i int) (member, error) {
		return models[i].start(p.Name, profileSources(p, opt, cpus), opt, false)
	})
	for i, err := range startErrs {
		if err != nil {
			errs[i] = err
		}
	}

	var streamed, served uint64
	for _, f := range fans {
		streamed += f.Streamed()
		served += f.Served()
	}
	batchRecordsStreamed.Add(streamed)
	if served > streamed {
		batchRecordsSaved.Add(served - streamed)
		batchBytesSaved.Add((served - streamed) * recordBytes)
	}
	return reps, errs
}

// BatchKey returns the grouping key under which runs may share one decoded
// trace stream: everything that determines the trace and the lockstep
// schedule — profile, CPU count, seed, length, warmup, cap, sampling —
// excluding the machine configuration itself, which is exactly what varies
// across a batch. RunJobs groups jobs by this key.
func BatchKey(cfg config.Config, p workload.Profile, opt RunOptions) (string, error) {
	opt.defaults()
	ph, err := config.HashJSON(p)
	if err != nil {
		return "", err
	}
	sj := ""
	if opt.Sample.Enabled() {
		b, err := config.CanonicalJSON(opt.Sample)
		if err != nil {
			return "", err
		}
		sj = string(b)
	}
	return fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00%s",
		ph, cfg.CPUs, opt.Seed, opt.Insts, opt.Warmup, opt.MaxCycles, sj), nil
}

// RunBatch simulates every configuration in cfgs against the profile's
// trace, decoding the trace once and advancing the members in lockstep. It
// returns one Report and one error per member, index-aligned with cfgs; a
// member's pair is exactly what its own RunContext call would have returned
// (byte-identical Report, same error strings), so callers can scatter the
// results wherever serial results would have gone.
//
// All members must have the same CPU count (they share per-CPU streams);
// members that cannot join (validation failure, CPU mismatch) error
// individually without sinking the batch. With opt.Cache set, members whose
// key is already cached are served before streaming begins and the
// remaining members are stored individually on success. With opt.Sample
// enabled the whole batch runs sampled: fast-forward and measurement
// windows advance in lockstep against the same shared rings.
func RunBatch(ctx context.Context, cfgs []config.Config, p workload.Profile, opt RunOptions) ([]system.Report, []error) {
	opt.defaults()
	reps := make([]system.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	models := make([]*Model, len(cfgs))
	cpus := 0
	for i := range cfgs {
		m, err := NewModel(cfgs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		if cpus == 0 {
			cpus = m.cfg.CPUs
		}
		if m.cfg.CPUs != cpus {
			errs[i] = fmt.Errorf("core: batch member %s has %d CPUs, want %d (members share per-CPU trace streams)",
				m.cfg.Name, m.cfg.CPUs, cpus)
			continue
		}
		models[i] = m
	}
	runProfile(ctx, models, p, opt, reps, errs)
	return reps, errs
}

// Job is one independent simulation of a study: a configuration, a
// workload and the run's options.
type Job struct {
	Config  config.Config
	Profile workload.Profile
	Opt     RunOptions
}

// RunJobs is the harnesses' job fan-out. It runs jobs on the scheduler,
// opt.Workers wide, and returns every job's report and error in submission
// order. With opt.Batch > 1, jobs that share a BatchKey are cut into chunks
// of at most opt.Batch, and each chunk runs as one RunBatch that streams
// its trace once; otherwise every job is a chunk of its own. A chunk the
// scheduler skipped after cancellation reports ctx.Err() for each of its
// jobs. Like Workers, batching never changes a report or an error.
func RunJobs(ctx context.Context, jobs []Job, opt RunOptions) ([]system.Report, []error) {
	size := max(opt.Batch, 1)
	groups := make(map[string][]int)
	var order []string
	for i, j := range jobs {
		key := strconv.Itoa(i) // a chunk of its own; BatchKeys contain \x00
		if size > 1 {
			// An unkeyable job runs alone; its run surfaces the error.
			if k, err := BatchKey(j.Config, j.Profile, j.Opt); err == nil {
				key = k
			}
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var chunks [][]int
	for _, key := range order {
		idx := groups[key]
		for len(idx) > size {
			chunks = append(chunks, idx[:size])
			idx = idx[size:]
		}
		chunks = append(chunks, idx)
	}

	reps := make([]system.Report, len(jobs))
	errs := make([]error, len(jobs))
	_, skipped := sched.MapAllCtx(ctx, len(chunks), sched.Options{Workers: opt.Workers},
		func(ctx context.Context, c int) (struct{}, error) {
			idx := chunks[c]
			cfgs := make([]config.Config, len(idx))
			for k, i := range idx {
				cfgs[k] = jobs[i].Config
			}
			first := jobs[idx[0]]
			r, e := RunBatch(ctx, cfgs, first.Profile, first.Opt)
			for k, i := range idx {
				reps[i], errs[i] = r[k], e[k]
			}
			return struct{}{}, nil
		})
	for c, err := range skipped {
		for _, i := range chunks[c] {
			if err != nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return reps, errs
}

// firstErr returns the lowest-index error, the one a serial loop over the
// same jobs would have hit first.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
