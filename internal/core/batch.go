package core

// The run engine.
//
// Every simulation — serial or batched, full or sampled — is advanced by
// one loop, drive. A run is a member: a sequence of bounded actions
// (actions), each announced by its trace demand — which CPU's records it
// reads and how many — just before it is performed, and a close-out
// (finish: its Report and error). A full run (fullRun) ticks the detailed
// machine a fixed number of cycles per action; a sampled run (sampledRun,
// sample.go) performs one fast-forward chunk or one detailed window.
//
// A serial run is a batch of one over its own sources: no ring, no
// per-round checks, a full run ticking system.PollStride cycles between
// context polls. A lockstep batch (RunBatch) is the same loop over shared
// sources: a parameter sweep runs many nearby configurations against the
// same workload trace, so one trace.Fanout per CPU stream decodes the trace
// once and feeds every member's machine through per-member cursors. Each
// round refills the rings and advances every member whose next action the
// rings can feed. Per-member mutable state stays inside each member's
// system.System, so members are independent: each produces a Report
// byte-identical to its own serial run (pinned by TestRunBatchMatchesSerial),
// finishes, caps or errors individually, and is cached individually.
//
// Scheduling rule: a member acts in a round only if none of its cursors is
// starved for its next action's demand (a full member's batchStride cycles
// × fetch width, a sampled member's chunk or window). The ring's
// back-pressure bounds how far members drift apart in the trace; after each
// Fill the slowest member always sees a full ring, so it always advances —
// a batch cannot deadlock on a single stream. On multi-CPU machines, mutual
// starvation across *different* streams is theoretically possible (members'
// relative progress would have to invert by a whole ring depth on two
// streams at once); a round that advances no member peels one member off
// and drives it again as a batch of one over fresh sources, which restores
// progress while keeping results exact.

import (
	"context"
	"fmt"
	"iter"
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
		"Batch members the run cache served (a hit, or another caller's flight) instead of simulating.")
	batchStallRestarts = obs.Default().Counter("sparc64v_batch_stall_restarts_total",
		"Members re-run serially after a lockstep round advanced nobody (cross-stream starvation).")
	batchOccupancy = obs.Default().Gauge("sparc64v_batch_occupancy",
		"Members currently advancing in lockstep batches.")
	batchRecordsStreamed = obs.Default().Counter("sparc64v_batch_records_streamed_total",
		"Trace records decoded once by batch frontends.")
	batchRecordsSaved = obs.Default().Counter("sparc64v_batch_records_saved_total",
		"Trace records served from shared rings that serial runs would have re-decoded.")
)

// A member is one run the engine advances.
type member interface {
	// actions performs the run's bounded actions in order, yielding each
	// one's demand just before performing it; the sequence ends when the
	// run is over. Nothing may happen before the first yield: the engine
	// pulls every member's first demand before its first round.
	actions(ctx context.Context) iter.Seq[demand]
	// finish closes the run out, once: its Report, and its error — a
	// cancellation (cerr non-nil, or one seen while acting), the cycle
	// cap, or nil.
	finish(cerr error) (system.Report, error)
}

// demand is the trace an action reads: which CPU's stream (-1: every CPU)
// and the most records it consumes there.
type demand struct{ cpu, n int }

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

// fullRun is a full detailed run: each action ticks the machine stride()
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

// stride is the cycles per action: a lockstep member ticks batchStride so
// it stays close to its batch in the trace; a lone run ticks
// system.PollStride, its cancellation stride.
func (r *fullRun) stride() int {
	if r.batched {
		return batchStride
	}
	return system.PollStride
}

// actions keeps a lone run's sim phase open across its back-to-back
// actions: closing a span phase takes the span's lock, and a lock per
// action costs ~10% under the race detector. A batch member's actions
// interleave with other members', so each is timed on its own.
func (r *fullRun) actions(context.Context) iter.Seq[demand] {
	return func(yield func(demand) bool) {
		for yield(demand{-1, r.stride() * r.sys.SourceReadBound(0)}) {
			if r.endSim == nil {
				r.endSim = r.sp.Phase(obs.PhaseSim)
			}
			done, capped := r.sys.Step(r.stride(), r.opt.maxCycles())
			r.capped = capped
			if r.batched {
				r.closeSim()
			}
			if done || capped {
				return
			}
		}
	}
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
	spanWork(r.sp, r.sys)
	r.sp.Finish()
	return rep, r.m.runErr(r.label, r.opt, cerr, r.capped)
}

// runErr is a finished run's error: cancelled, capped, or nil.
func (m *Model) runErr(label string, opt RunOptions, cerr error, capped bool) error {
	if cerr != nil {
		return fmt.Errorf("core: %s/%s cancelled: %w", m.cfg.Name, label, cerr)
	}
	if capped {
		return fmt.Errorf("core: %s/%s hit the %d-cycle cap", m.cfg.Name, label, opt.maxCycles())
	}
	return nil
}

// drive is the run engine: it advances members until each is over and
// returns their reports and errors, index-aligned with members. A nil
// member (one that failed to start) is skipped. Member i runs on ctxs[i]
// and is cancelled alone when that context ends, so a batch member whose
// last waiter has gone stops without stopping the others.
//
// Each member's actions are pulled one at a time: pulling performs the
// action whose demand was pulled last and returns the next demand. With
// fans == nil each member reads its own sources and acts back to back,
// with a context poll between actions. With fans, member i reads cursor i
// of every fan; each round refills the rings and advances every member
// whose next action the rings can feed. A round that advances nobody peels
// the first waiting member off and drives it again, as a batch of one over
// the fresh sources restart builds.
func drive(ctxs []context.Context, members []member, fans []*trace.Fanout, restart func(i int) (member, error)) ([]system.Report, []error) {
	reps := make([]system.Report, len(members))
	errs := make([]error, len(members))
	type pulled struct {
		next func() (demand, bool)
		stop func()
		want demand
		more bool // false once the actions have ended
	}
	runs := make([]pulled, len(members))
	// Stop every sequence on every way out, a panicking member included,
	// so no parked sequence outlives the engine (stop is idempotent).
	defer func() {
		for i := range runs {
			if runs[i].stop != nil {
				runs[i].stop()
			}
		}
	}()
	leave := func(i int) {
		if runs[i].stop != nil {
			runs[i].stop()
		}
		if fans == nil {
			return
		}
		for _, f := range fans {
			f.Cursor(i).Close()
		}
		batchOccupancy.Add(-1)
	}
	finish := func(i int, cerr error) {
		leave(i)
		reps[i], errs[i] = members[i].finish(cerr)
	}
	var live []int
	for i, mb := range members {
		if mb == nil {
			leave(i)
			continue
		}
		r := &runs[i]
		r.next, r.stop = iter.Pull(mb.actions(ctxs[i]))
		r.want, r.more = r.next()
		live = append(live, i)
	}
	for len(live) > 0 {
		next := live[:0]
		for _, i := range live {
			if err := ctxs[i].Err(); err != nil {
				finish(i, err)
			} else {
				next = append(next, i)
			}
		}
		if live = next; len(live) == 0 {
			break
		}
		for _, f := range fans {
			f.Fill()
		}
		progressed := false
		next = live[:0]
		for _, i := range live {
			r := &runs[i]
			if r.more && fans != nil && starved(fans, i, r.want) {
				next = append(next, i)
				continue
			}
			progressed = true
			if r.more {
				r.want, r.more = r.next()
			}
			if !r.more {
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
			r, e := drive(ctxs[i:i+1], []member{mb}, nil, nil)
			reps[i], errs[i] = r[0], e[0]
		}
	}
	return reps, errs
}

// starved reports whether member i's cursors cannot yet feed demand d.
func starved(fans []*trace.Fanout, i int, d demand) bool {
	if d.cpu >= 0 {
		return fans[d.cpu].Cursor(i).Starved(d.n)
	}
	for _, f := range fans {
		if f.Cursor(i).Starved(d.n) {
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
// largest single action is a whole detailed window's budget or one
// fast-forward chunk; the ring holds twice that, so the slowest member
// still sees a full ring while others buffer.
func ringDepth(opt RunOptions) int {
	if !opt.Sample.Enabled() {
		return batchRingDepth
	}
	return 2 * max(ffChunk, opt.Sample.WarmupInsts, opt.Sample.MeasureInsts)
}

// runProfile is the one cache path, under RunContext and RunBatch: it runs
// p on every non-nil model, writing each result to reps[i], errs[i].
//
// Without opt.Cache every model runs on ctx: a lone one on its own, two or
// more in lockstep. With opt.Cache it first claims every model's key
// (runcache.Claim). A hit is served at once, each with a span carrying the
// cached marker. The keys this call leads run as above, each on its
// flight's context, and are completed into the cache one by one. A key
// another caller is already running — or that appears twice here — is not
// simulated again: its model waits for that flight. Failed or cancelled
// runs are never stored.
func runProfile(ctx context.Context, models []*Model, p workload.Profile, opt RunOptions, reps []system.Report, errs []error) {
	type claimed struct {
		t   *runcache.Ticket // nil when the run is uncached
		sp  *obs.Span        // published only if the cache serves the run
		end func()           // closes sp's cache phase
	}
	cl := make([]claimed, len(models))
	if opt.Cache != nil {
		var keys []runcache.Key
		var at []int
		for i, m := range models {
			if m == nil {
				continue
			}
			// An unhashable configuration (cannot happen for real Configs)
			// runs uncached rather than failing.
			if key, err := m.runKey(p, opt); err == nil {
				keys = append(keys, key)
				at = append(at, i)
				cl[i].sp = opt.Obs.StartSpan("run", p.Name)
				cl[i].end = cl[i].sp.Phase(obs.PhaseCache)
			}
		}
		ts := opt.Cache.Claim(ctx, keys)
		for k, i := range at {
			cl[i].t = &ts[k]
		}
	}
	// served closes the span of a run the cache served.
	served := func(i int) {
		cl[i].end()
		cachedSpan(cl[i].sp, reps[i])
		if len(models) > 1 {
			batchCacheSkips.Inc()
		}
	}

	var run []*Model
	var runCtxs []context.Context
	var at []int
	for i, m := range models {
		if m == nil {
			continue
		}
		runCtx := ctx
		if t := cl[i].t; t != nil {
			switch t.Outcome {
			case runcache.OutcomeMiss:
				runCtx = t.Context()
			case runcache.OutcomeShared:
				continue // waited for below
			default:
				reps[i] = t.Report
				served(i)
				continue
			}
		}
		run = append(run, m)
		runCtxs = append(runCtxs, runCtx)
		at = append(at, i)
	}
	// A panicking run must not leave the flights it leads open: fail what
	// is still open (Complete on a completed flight is a no-op).
	defer func() {
		for _, i := range at {
			if t := cl[i].t; t != nil {
				opt.Cache.Complete(t, system.Report{}, runcache.ErrAbandoned)
			}
		}
	}()
	var r []system.Report
	var e []error
	switch len(run) {
	case 0:
	case 1:
		rep, err := run[0].RunSourcesContext(runCtxs[0], p.Name, profileSources(p, opt, run[0].cfg.CPUs), opt)
		r, e = []system.Report{rep}, []error{err}
	default:
		r, e = lockstep(runCtxs, run, p, opt, ringDepth(opt))
	}
	for k, i := range at {
		reps[i], errs[i] = r[k], e[k]
		if t := cl[i].t; t != nil {
			opt.Cache.Complete(t, r[k], e[k])
		}
	}
	for i := range cl {
		if t := cl[i].t; t != nil && t.Outcome == runcache.OutcomeShared {
			if reps[i], errs[i] = opt.Cache.Wait(ctx, t); errs[i] == nil {
				served(i)
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
// cursor per (stream, member). Model i runs on ctxs[i].
func lockstep(ctxs []context.Context, models []*Model, p workload.Profile, opt RunOptions, depth int) ([]system.Report, []error) {
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
	reps, errs := drive(ctxs, members, fans, func(i int) (member, error) {
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
	}
	return reps, errs
}

// BatchKey returns the grouping key under which runs may share one decoded
// trace stream: everything that determines the trace and the lockstep
// schedule — profile, CPU count, seed, length (which sets the cycle cap),
// warmup, sampling — excluding the machine configuration itself, which is
// exactly what varies across a batch. RunJobs groups jobs by this key.
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
	return fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%d\x00%s",
		ph, cfg.CPUs, opt.Seed, opt.Insts, opt.Warmup, sj), nil
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
// key is already cached are served before streaming begins, members that
// another caller is already running join that run, and the rest are
// stored individually on success. With opt.Sample
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

// maxBatch bounds a lockstep chunk: at most this many machines advance
// together in one RunBatch.
const maxBatch = 8

// RunJobs is the harnesses' job fan-out. It runs jobs on the scheduler,
// opt.Workers wide, and returns every job's report and error in submission
// order. Jobs that share a BatchKey are batched: the group is cut into
// chunks of at most size = clamp(ceil(len(jobs)/workers), 1, maxBatch) —
// enough chunks to keep every worker busy — and each chunk runs as one
// RunBatch that streams its trace once. A chunk the scheduler skipped
// after cancellation reports ctx.Err() for each of its jobs. Like Workers,
// batching never changes a report or an error.
func RunJobs(ctx context.Context, jobs []Job, opt RunOptions) ([]system.Report, []error) {
	w := sched.Workers(opt.Workers)
	size := min(max((len(jobs)+w-1)/w, 1), maxBatch)
	groups := make(map[string][]int)
	var order []string
	for i, j := range jobs {
		key, err := BatchKey(j.Config, j.Profile, j.Opt)
		if err != nil {
			// An unkeyable job runs alone (BatchKeys contain \x00); its run
			// surfaces the error.
			key = strconv.Itoa(i)
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
