package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/server"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// Request classes of the service mix.
const (
	classHit = iota
	classEstimate
	classMiss
)

var classNames = [...]string{"hit", "estimate", "miss"}

// svcPattern is one cycle of the mix: 60% /v1/run on the warmed hot set,
// 25% /v1/estimate, 15% /v1/run on a fresh seed. The benchmark seed
// shuffles it; each client walks it from its own offset, so the mix is
// exact over every full cycle instead of drifting with a random draw.
var svcPattern = [20]int{
	classHit, classHit, classHit, classHit, classHit, classHit,
	classHit, classHit, classHit, classHit, classHit, classHit,
	classEstimate, classEstimate, classEstimate, classEstimate, classEstimate,
	classMiss, classMiss, classMiss,
}

// svcClients is the closed loop's client count: one per host CPU, each on
// its own keep-alive connection, because study callers wait for each
// reply before sending the next.
var svcClients = runtime.NumCPU()

// reply is one HTTP response.
type reply struct {
	status int
	cache  string
	node   string
	body   []byte
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Node"), b}, err
}

// runStats extracts a /v1/run reply's stats document in compact form —
// byte-identical to json.Marshal of the Summary the worker encoded.
func runStats(b []byte) ([]byte, error) {
	var r struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if len(r.Stats) == 0 {
		return nil, errors.New("reply has no stats")
	}
	var buf bytes.Buffer
	err := json.Compact(&buf, r.Stats)
	return buf.Bytes(), err
}

// conserveSummary is conserve for a Summary received over HTTP.
func conserveSummary(stats []byte) error {
	var s system.Summary
	if err := json.Unmarshal(stats, &s); err != nil {
		return err
	}
	if s.Committed == 0 {
		return errors.New("run committed nothing")
	}
	for i, c := range s.PerCPU {
		var sum uint64
		for _, n := range c.CommittedByClass {
			sum += n
		}
		if c.Fetched < c.Committed || sum != c.Committed {
			return fmt.Errorf("cpu %d: fetched %d, committed %d, per-class sum %d", i, c.Fetched, c.Committed, sum)
		}
	}
	return nil
}

// svcSample is one measured request.
type svcSample struct {
	class  int
	ms     float64
	traced bool
	bytes  int
	cache  string // the X-Cache outcome
	failed bool
}

// service is the service-mix workload's state.
type service struct {
	e         *env
	insts     int
	hot       []server.RunRequest
	hotBody   [][]byte
	estBody   [][]byte
	estWant   []analytic.Estimate // the in-process estimate per body
	missCount atomic.Int64
	traceIDs  atomic.Int64
}

// missReq is the i-th fresh-seed miss: SPECint95 and TPC-C alternate,
// each with a seed no hot key or earlier miss uses.
func (s *service) missReq(i int64) server.RunRequest {
	w := "specint95"
	if i%2 == 1 {
		w = "tpcc"
	}
	return server.RunRequest{Workload: w, Insts: s.insts, Seed: 1<<40 + s.e.seed<<20 + i + 1}
}

func newService(e *env) (*service, error) {
	s := &service{e: e, insts: e.sizes.svcInsts}
	names := workload.Names()[:5] // the five UP profiles
	for k, seed := range simSeeds(e.seed, e.sizes.hotKeys) {
		req := server.RunRequest{Workload: names[k%len(names)], Insts: s.insts, Seed: seed}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		s.hot, s.hotBody = append(s.hot, req), append(s.hotBody, b)
	}
	cal, err := analytic.Default()
	if err != nil {
		return nil, err
	}
	for _, cfg := range sweepConfigs() {
		cj, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			body, err := json.Marshal(server.EstimateRequest{Workload: name, Config: cj})
			if err != nil {
				return nil, err
			}
			p, _ := workload.ByName(name)
			est, err := cal.Estimate(cfg, p.Name)
			if err != nil {
				return nil, err
			}
			s.estBody, s.estWant = append(s.estBody, body), append(s.estWant, est)
		}
	}
	return s, nil
}

// warm is one set-up's result: the cluster and the hot set's replies.
type warm struct {
	cl    *cluster
	stats [][]byte // compact stats per hot key
	owner []string // X-Node that simulated each hot key
}

// setup starts a fresh cluster (empty cache directories) and warms the hot
// set through the gateway with the closed loop's clients.
func (s *service) setup(ctx context.Context, i int) (*warm, error) {
	dir := filepath.Join(s.e.work, fmt.Sprintf("setup%d", i))
	dirs := []string{filepath.Join(dir, "n0"), filepath.Join(dir, "n1")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cl, err := s.e.startCluster(ctx, dirs, s.insts)
	if err != nil {
		return nil, err
	}
	w := &warm{cl: cl, stats: make([][]byte, len(s.hot)), owner: make([]string, len(s.hot))}
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient()
			for k := c; k < len(s.hot); k += svcClients {
				rp, err := post(ctx, hc, cl.gateway+"/v1/run", s.hotBody[k])
				if err == nil && (rp.status != http.StatusOK || rp.cache != "miss") {
					err = fmt.Errorf("hot key %d: status %d cache %q: %s", k, rp.status, rp.cache, rp.body)
				}
				if err == nil {
					w.stats[k], err = runStats(rp.body)
				}
				if err == nil {
					err = conserveSummary(w.stats[k])
				}
				if err != nil {
					errs[c] = err
					return
				}
				w.owner[k] = rp.node
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cl.stop()
		return nil, err
	}
	return w, nil
}

// digest is the service's golden digest: the hot set's stats.
func (s *service) digest(w *warm) string {
	var parts []string
	for _, b := range w.stats {
		parts = append(parts, sha(b))
	}
	return combine(parts)
}

// sameEstimate checks an /v1/estimate reply against the in-process
// estimate. Floating-point fields may differ in their last bits: the
// estimator sums a map's entries in iteration order, so two evaluations of
// one request are not bit-identical.
func sameEstimate(body []byte, want analytic.Estimate) error {
	var got analytic.Estimate
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	ok := got.Workload == want.Workload && got.Config == want.Config && got.ModelVersion == want.ModelVersion &&
		got.CalibrationInsts == want.CalibrationInsts && got.CalibrationSeed == want.CalibrationSeed &&
		close(got.CPI, want.CPI) && close(got.IPC, want.IPC) && close(got.CPILow, want.CPILow) &&
		close(got.CPIHigh, want.CPIHigh) && close(got.MaxRelErr, want.MaxRelErr) && len(got.Terms) == len(want.Terms)
	for k, v := range want.Terms {
		ok = ok && close(got.Terms[k], v)
	}
	if !ok {
		return fmt.Errorf("estimate for %s on %s differs from the in-process estimate", want.Workload, want.Config)
	}
	return nil
}

// runService is the service-mix workload: the real simgw in front of two
// peer-meshed simd workers, driven closed-loop from this process.
func runService(ctx context.Context, e *env) (*outcome, error) {
	s, err := newService(e)
	if err != nil {
		return nil, err
	}
	oc := &outcome{values: map[string]float64{},
		notOnPath: []string{"trace.fanout_", "core.ff_", "core.sampled_cpi_err_pct", "sched."}}
	var setups []float64
	var w *warm
	for i := 0; i < e.sizes.setups; i++ {
		t0 := time.Now()
		wi, err := s.setup(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			oc.attempted++
			for k := range wi.stats {
				if !bytes.Equal(wi.stats[k], w.stats[k]) {
					oc.fail(e, "set-up determinism", fmt.Errorf("hot key %d differs between fresh clusters", k))
					break
				}
			}
			w.cl.stop()
		}
		w = wi
	}
	defer w.cl.stop()
	oc.digest = s.digest(w)
	if e.regen {
		return oc, nil
	}
	oc.checkGolden(e)

	stopRSS := sampleRSS(w.cl.pids)
	samples, rechecks, wall := s.measure(ctx, w)
	rss := stopRSS()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var misses int
	for _, sm := range samples {
		oc.attempted++
		if sm.failed {
			oc.failed++
		}
		if sm.class == classMiss {
			misses++
		}
	}

	var acc layerAcc
	var mallocs, allocBytes uint64
	// rerun simulates a request in-process exactly as a worker would. With
	// traced set, the run's counters and phases feed the per-layer
	// metrics; only the fixed probe misses do, so those metrics repeat
	// exactly for a seed however many misses the closed loop reached.
	rerun := func(req server.RunRequest, traced bool) (system.Report, time.Duration, error) {
		rr, err := server.ResolveRun(config.Base(), s.insts, req)
		if err != nil {
			return system.Report{}, 0, err
		}
		var col *obs.Collector
		var ms0, ms1 runtime.MemStats
		if traced {
			col = obs.NewCollector()
			rr.Opt.Obs = col
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		rep, err := rr.Model.RunContext(ctx, rr.Profile, rr.Opt)
		d := time.Since(t0)
		if traced && err == nil {
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			acc.add(opOut{reps: []system.Report{rep}, col: col, op: &simOp{insts: float64(s.insts)}})
		}
		return rep, d, err
	}
	// One miss in sixteen is re-simulated in-process, untimed, and must
	// match the service's answer byte for byte.
	for _, rc := range rechecks {
		oc.attempted++
		rep, _, err := rerun(rc.req, false)
		if err == nil {
			err = sameStats(&rep, rc.stats)
		}
		if err != nil {
			oc.fail(e, fmt.Sprintf("miss seed %d in-process", rc.req.Seed), err)
		}
	}

	if !e.traced {
		oc.values["setup_s"] = median(setups)
		oc.values["sim_minst_per_s"] = float64(misses) * float64(s.insts) / wall.Seconds() / 1e6
		var all []float64
		for _, sm := range samples {
			all = append(all, sm.ms)
		}
		oc.values["op_p50_ms"] = median(all)
		oc.values["rss_mib"] = rss
		fmt.Fprintf(e.out, "# %s requests=%d misses=%d rechecked=%d setups=%d\n",
			e.workload, len(samples), misses, len(rechecks), len(setups))
		return oc, nil
	}
	m := oc.values
	// The misses' profiles through the standalone passes; the estimator
	// over the mix's estimate requests.
	missProfiles := []workload.Profile{workload.SPECint95(), workload.TPCC()}
	if err := standardPasses(ctx, m, missProfiles, simSeeds(e.seed, 1)[0], 1, s.insts, sweepConfigs(), workload.UPProfiles()); err != nil {
		return nil, err
	}
	if err := s.layerMetrics(ctx, w, m, samples, rerun, oc); err != nil {
		return nil, err
	}
	acc.emit(m)
	m["core.allocs_per_run"] = safeDiv(float64(mallocs), float64(acc.runs))
	m["core.alloc_bytes_per_kinst"] = safeDiv(float64(allocBytes), float64(acc.runs*s.insts)/1000)
	rows, opWall := layerTable(e.rec.snapshot())
	m["bench.unattributed_pct"] = 100 * unattributed(rows)
	printLayerTable(e.out, e.workload, rows, opWall)
	return oc, nil
}

// sameStats checks an in-process report against stats a worker returned.
func sameStats(rep *system.Report, stats []byte) error {
	b, err := summaryJSON(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, stats) {
		return errors.New("service stats differ from the in-process run")
	}
	return nil
}

// recheck is a measured miss kept for in-process re-simulation.
type recheck struct {
	req   server.RunRequest
	stats []byte
}

// measure drives the closed loop through the gateway for e.dur. Each
// reply is checked: a hit must carry its warm-up stats byte for byte, an
// estimate must equal the in-process estimate, a miss must be a fresh
// simulation that keeps the conservation invariants.
func (s *service) measure(ctx context.Context, w *warm) ([]svcSample, []recheck, time.Duration) {
	perm := rand.New(rand.NewSource(s.e.seed)).Perm(len(svcPattern))
	samples := make([][]svcSample, svcClients)
	checks := make([][]recheck, svcClients)
	fails := make([][]string, svcClients)
	start := time.Now()
	deadline := start.Add(s.e.dur)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient()
			var hits, ests int
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				class := svcPattern[perm[(i+c*len(perm)/svcClients)%len(perm)]]
				var body []byte
				var path string
				var hit, est int
				var miss server.RunRequest
				var missIdx int64
				switch class {
				case classHit:
					hit = (hits*svcClients + c) % len(s.hot)
					hits++
					body, path = s.hotBody[hit], "/v1/run"
				case classEstimate:
					est = (ests*svcClients + c) % len(s.estBody)
					ests++
					body, path = s.estBody[est], "/v1/estimate"
				case classMiss:
					missIdx = s.missCount.Add(1) - 1
					miss = s.missReq(missIdx)
					body, _ = json.Marshal(miss)
					path = "/v1/run"
				}
				traced := s.e.traced && i%2 == 0
				var sc scope
				if traced {
					sc = s.e.rec.root(int(s.traceIDs.Add(1)))
				}
				osc, endOp := sc.begin(opSpan)
				_, endCall := osc.begin("gateway." + classNames[class])
				t0 := time.Now()
				rp, err := post(ctx, hc, w.cl.gateway+path, body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				endCall()
				sm := svcSample{class: class, ms: ms, traced: traced, bytes: len(rp.body), cache: rp.cache}
				if err == nil && rp.status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", rp.status, rp.body)
				}
				if err == nil {
					switch class {
					case classHit:
						var st []byte
						if st, err = runStats(rp.body); err == nil && !bytes.Equal(st, w.stats[hit]) {
							err = fmt.Errorf("hot key %d: stats differ from warm-up", hit)
						}
					case classEstimate:
						err = sameEstimate(rp.body, s.estWant[est])
					case classMiss:
						var st []byte
						if rp.cache != "miss" {
							err = fmt.Errorf("fresh seed %d served as %q", miss.Seed, rp.cache)
						} else if st, err = runStats(rp.body); err == nil {
							err = conserveSummary(st)
						}
						if err == nil && missIdx%16 == 0 {
							checks[c] = append(checks[c], recheck{miss, st})
						}
					}
				}
				endOp()
				if err != nil {
					fails[c] = append(fails[c], fmt.Sprintf("%s request: %v", classNames[class], err))
					sm.failed = true
				}
				samples[c] = append(samples[c], sm)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []svcSample
	var rcs []recheck
	for c := range samples {
		all = append(all, samples[c]...)
		rcs = append(rcs, checks[c]...)
		for _, f := range fails[c] {
			fmt.Fprintf(s.e.out, "# %s FAIL %s\n", s.e.workload, f)
		}
	}
	return all, rcs, wall
}

// layerMetrics computes the service's per-layer values from the traced
// mix, the workers' and gateway's /metrics, and direct probes that skip
// the gateway or the service to price each hop.
func (s *service) layerMetrics(ctx context.Context, w *warm, m map[string]float64, samples []svcSample,
	rerun func(server.RunRequest, bool) (system.Report, time.Duration, error), oc *outcome) error {
	byClass := make([][]float64, len(classNames))
	var traced, plain []float64
	var runs, cached, runBytes float64
	for _, sm := range samples {
		byClass[sm.class] = append(byClass[sm.class], sm.ms)
		if sm.class == classHit {
			if sm.traced {
				traced = append(traced, sm.ms)
			} else {
				plain = append(plain, sm.ms)
			}
		}
		if sm.class != classEstimate {
			runs++
			runBytes += float64(sm.bytes)
			if strings.HasPrefix(sm.cache, "hit") || sm.cache == "dedup" {
				cached++
			}
		}
	}
	for _, t := range []struct {
		name  string
		class int
		q     float64
	}{
		{"gateway.hit_p50_ms", classHit, 0.5}, {"gateway.hit_p99_ms", classHit, 0.99},
		{"gateway.miss_p50_ms", classMiss, 0.5}, {"gateway.miss_p90_ms", classMiss, 0.9},
		{"gateway.estimate_p50_ms", classEstimate, 0.5}, {"gateway.estimate_p90_ms", classEstimate, 0.9},
	} {
		p := percentile(byClass[t.class], t.q)
		m[t.name] = p.Value
		fmt.Fprintf(s.e.out, "# %s %s n=%d beyond=%d\n", s.e.workload, t.name, p.N, p.Beyond)
		if !p.tailOK() && !s.e.short {
			oc.attempted++
			oc.fail(s.e, t.name, fmt.Errorf("only %d samples beyond the percentile, need 10", p.Beyond))
		}
	}
	m["runcache.hit_ratio"] = safeDiv(cached, runs)
	m["server.resp_bytes_per_run"] = safeDiv(runBytes, runs)
	m["bench.trace_overhead_pct"] = 100 * safeDiv(median(traced)-median(plain), median(plain))

	var diskSum, diskCount, peerMiss, cacheMiss float64
	for _, nd := range w.cl.nodes {
		mt, err := scrape(ctx, nd.url)
		if err != nil {
			return err
		}
		diskSum += mt["sparc64v_runcache_disk_write_seconds_sum"]
		diskCount += mt["sparc64v_runcache_disk_write_seconds_count"]
		peerMiss += mt[`sparc64v_peer_fetch_total{outcome="miss"}`]
		cacheMiss += mt["sparc64v_cache_misses_total"]
	}
	m["runcache.disk_write_ms_mean"] = 1e3 * safeDiv(diskSum, diskCount)
	m["runcache.peer_probes_per_miss"] = safeDiv(peerMiss, cacheMiss)
	gm, err := scrape(ctx, w.cl.gateway)
	if err != nil {
		return err
	}
	var retries float64
	for k, v := range gm {
		if strings.HasPrefix(k, "sparc64v_gateway_retries_total") {
			retries += v
		}
	}
	m["gateway.retries"] = retries

	// Hits sent to their owner directly and through the gateway price the
	// gateway hop; estimates sent directly price the server around the
	// analytic tier; fresh misses sent directly and re-run in-process
	// price the service around the simulation.
	hc := newHTTPClient()
	owner := make(map[string]string)
	for _, nd := range w.cl.nodes {
		owner[nd.name] = nd.url
	}
	var via, direct, estDirect, missDirect, missLocal []float64
	timed := func(url string, body []byte) (reply, float64, error) {
		t0 := time.Now()
		rp, err := post(ctx, hc, url, body)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", url, rp.status, rp.body)
		}
		return rp, ms, err
	}
	probes := 200
	if s.e.short {
		probes = 8
	}
	for k := 0; k < probes; k++ {
		h := k % len(s.hot)
		targets := []string{w.cl.gateway, owner[w.owner[h]]}
		if k%2 == 1 {
			targets[0], targets[1] = targets[1], targets[0]
		}
		for _, t := range targets {
			_, ms, err := timed(t+"/v1/run", s.hotBody[h])
			if err != nil {
				return err
			}
			if t == w.cl.gateway {
				via = append(via, ms)
			} else {
				direct = append(direct, ms)
			}
		}
		e := k % len(s.estBody)
		rp, ms, err := timed(w.cl.nodes[k%len(w.cl.nodes)].url+"/v1/estimate", s.estBody[e])
		if err != nil {
			return err
		}
		oc.attempted++
		if err := sameEstimate(rp.body, s.estWant[e]); err != nil {
			oc.fail(s.e, "direct estimate", err)
		}
		estDirect = append(estDirect, ms)
	}
	for k := int64(0); k < 16; k++ {
		// Which side runs first alternates, so neither always finds the
		// host warmer.
		req := s.missReq(1<<19 + k)
		body, _ := json.Marshal(req)
		var rp reply
		var ms float64
		var rep system.Report
		var local time.Duration
		var err error
		for side := 0; side < 2 && err == nil; side++ {
			if (int64(side)+k)%2 == 0 {
				rp, ms, err = timed(w.cl.nodes[int(k/2)%len(w.cl.nodes)].url+"/v1/run", body)
			} else {
				rep, local, err = rerun(req, true)
			}
		}
		if err != nil {
			return err
		}
		st, err := runStats(rp.body)
		if err == nil {
			err = sameStats(&rep, st)
		}
		oc.attempted++
		if err != nil {
			oc.fail(s.e, "direct miss", err)
		}
		missDirect = append(missDirect, ms)
		missLocal = append(missLocal, float64(local.Nanoseconds())/1e6)
	}
	m["server.hit_direct_ms_p50"] = median(direct)
	m["gateway.hop_ms_p50"] = median(via) - median(direct)
	m["server.miss_overhead_ms"] = median(missDirect) - median(missLocal)
	m["server.estimate_overhead_ms"] = median(estDirect) - m["analytic.estimate_us_p50"]/1e3
	fmt.Fprintf(s.e.out, "# %s hit: via gateway %.3f ms, direct %.3f ms; miss: direct %.3f ms, in-process %.3f ms\n",
		s.e.workload, median(via), median(direct), median(missDirect), median(missLocal))
	return nil
}

// scrape reads a /metrics page into series → value.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out, sc.Err()
}
