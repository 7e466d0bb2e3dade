// Package server exposes the simulator as a small HTTP service: a
// content-addressed run endpoint, the experiment-study harness, a health
// probe, and a Prometheus-style text metrics page.
//
// The service is deliberately stdlib-only. Admission control is two-stage:
// a request that needs a fresh simulation first takes a queue token
// (non-blocking — when the queue is full the request is shed with 429
// before any simulation work starts) and then a worker slot (blocking —
// this bounds concurrent simulations). Cache hits and deduplicated joiners
// never touch the queue: only the singleflight leader of a missing key
// pays for admission, so a burst of identical requests costs one slot.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/expt"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/sched"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// ErrOverloaded is returned by the admission gate when the queue is full;
// the handlers translate it to 429.
var ErrOverloaded = errors.New("server overloaded: queue full")

// MaxBodyBytes bounds a POST body, here and at the gateway; run and
// estimate requests are a few hundred bytes, so a larger body is a client
// error (413), never a resource commitment.
const MaxBodyBytes = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Cache serves repeated runs; required.
	Cache *runcache.Cache
	// Base is the configuration request overlays start from; the zero
	// value means config.Base().
	Base config.Config
	// Workers bounds concurrent simulations; 0 means sched.Workers().
	Workers int
	// MaxQueue bounds admitted-but-not-yet-running jobs beyond Workers;
	// 0 means 64. A negative value means no waiting room (admit only up
	// to Workers).
	MaxQueue int
	// DefaultInsts is the per-CPU trace length when a request does not
	// specify one; 0 means 1,000,000 (the repo's standard sweep length).
	DefaultInsts int
	// Registry holds every series the server exports and is the whole
	// /metrics page; nil means obs.Default(), so the production service
	// also exposes the process-wide core/sched/runcache/metamorph series.
	// Each Server registers func-backed series on it, so two Servers
	// cannot share one registry: tests pass a fresh registry each, which
	// also keeps their pages deterministic.
	Registry *obs.Registry
	// NodeID names this node in a cluster; when set it is echoed as the
	// X-Node header on every response so the gateway (and operators) can
	// attribute work. Empty means single-node operation.
	NodeID string
	// Peers lists peer node base URLs for the shared-cache protocol;
	// when non-empty the run cache gains a remote tier that consults
	// them (GET /v1/cache/{id}) before simulating a miss.
	Peers []string
	// PeerClient overrides the HTTP client peer fetches use (tests;
	// custom timeouts). nil means a dedicated client with the default
	// peer timeout.
	PeerClient *http.Client
}

// Server implements the HTTP handlers. Construct with New; serve
// Handler() from an http.Server the caller owns (so the caller controls
// listening and graceful Shutdown).
type Server struct {
	cache        *runcache.Cache
	base         config.Config
	workers      int
	maxQueue     int
	defaultInsts int

	// nodeID is the cluster identity; draining flips when a graceful
	// shutdown starts, turning /healthz into a drain signal and shedding
	// new runs with 503 so the gateway fails them over.
	nodeID      string
	draining    atomic.Bool
	peerClient  *http.Client
	peerFetcher *PeerFetcher

	// queue holds every admitted simulation (waiting or running); cap
	// workers+maxQueue. working holds running simulations; cap workers.
	queue   chan struct{}
	working chan struct{}

	// cal is the embedded analytic calibration behind POST /v1/estimate;
	// the fast tier is pure arithmetic over it, so estimate requests never
	// touch the admission queue.
	cal *analytic.Calibration

	// reg holds the obs-based series; now is the request clock, scripted
	// by the exposition golden test.
	reg *obs.Registry
	now func() time.Time

	runRequests      *obs.Counter
	studyRequests    *obs.Counter
	estimateRequests *obs.Counter
	rejectedShed     *obs.Counter
	drains           *obs.Counter

	// simulate runs one uncached simulation; tests substitute a scripted
	// implementation to pin admission and drain behavior without
	// simulating.
	simulate func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error)

	mux *http.ServeMux
}

// New builds a Server.
func New(c Config) (*Server, error) {
	if c.Cache == nil {
		return nil, errors.New("server: Config.Cache is required")
	}
	if c.Base.Name == "" {
		c.Base = config.Base()
	}
	c.Workers = sched.Workers(c.Workers)
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultInsts <= 0 {
		c.DefaultInsts = 1_000_000
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	cal, err := analytic.Default()
	if err != nil {
		return nil, fmt.Errorf("server: load calibration artifact: %w", err)
	}
	s := &Server{
		cal:          cal,
		cache:        c.Cache,
		base:         c.Base,
		workers:      c.Workers,
		maxQueue:     c.MaxQueue,
		defaultInsts: c.DefaultInsts,
		nodeID:       c.NodeID,
		peerClient:   c.PeerClient,
		queue:        make(chan struct{}, c.Workers+c.MaxQueue),
		working:      make(chan struct{}, c.Workers),
		reg:          c.Registry,
		now:          time.Now,
		rejectedShed: c.Registry.Counter("sparc64v_http_shed_total",
			"Requests shed with 429 because the admission queue was full."),
		drains: c.Registry.Counter("sparc64v_server_drains_total",
			"Graceful drains started (SIGINT/SIGTERM shutdowns)."),
		simulate: func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
			return m.RunContext(ctx, p, opt)
		},
	}
	s.registerPageSeries()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/studies/{id}", s.handleStudy)
	mux.HandleFunc("GET /v1/cache/{id}", s.handleCacheEntry)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	if len(c.Peers) > 0 {
		s.SetPeers(c.Peers)
	}
	return s, nil
}

// SetPeers installs (or replaces) the peer list of the shared-cache
// remote tier. Tests and dynamic-membership callers use it when peer
// addresses are only known after construction.
func (s *Server) SetPeers(peers []string) {
	if s.peerFetcher == nil {
		s.peerFetcher = NewPeerFetcher(peers, s.peerClient, s.reg)
		s.cache.SetRemote(s.peerFetcher)
		return
	}
	s.peerFetcher.SetPeers(peers)
}

// Handler returns the service's root handler: the route mux wrapped in the
// request-metrics middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := s.now()
		if s.nodeID != "" {
			w.Header().Set("X-Node", s.nodeID)
		}
		sw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		endpoint := endpointLabel(r.URL.Path)
		labels := []obs.Label{obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code))}
		s.reg.Counter("sparc64v_http_responses_total",
			"HTTP responses, by endpoint and status code.", labels...).Inc()
		s.reg.Histogram("sparc64v_http_request_seconds",
			"HTTP request handling latency, by endpoint and status code.",
			nil, labels...).Observe(s.now().Sub(t0).Seconds())
	})
}

// statusWriter captures the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// endpointLabel maps a request path to its bounded endpoint label — never
// the raw path, which would let clients mint unbounded series.
func endpointLabel(path string) string {
	switch {
	case path == "/v1/run":
		return "run"
	case path == "/v1/estimate":
		return "estimate"
	case strings.HasPrefix(path, "/v1/studies/"):
		return "study"
	case strings.HasPrefix(path, "/v1/cache/"):
		return "cache"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// DrainStarted records the beginning of a graceful shutdown; cmd/simd
// calls it when the stop signal arrives, so post-drain scrapes (and the
// final stderr report) show the drain happened. From this point /healthz
// answers 503 and new /v1/run requests are shed with 503 "draining";
// in-flight runs, cache serving, estimates and metrics keep working so
// the node drains without losing accepted work.
func (s *Server) DrainStarted() {
	s.draining.Store(true)
	s.drains.Inc()
}

// Draining reports whether a graceful shutdown has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit reserves capacity for one simulation. It returns ErrOverloaded
// immediately when the queue is full, otherwise blocks until a worker slot
// frees (or ctx is cancelled). The returned release frees both.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.rejectedShed.Inc()
		return nil, ErrOverloaded
	}
	select {
	case s.working <- struct{}{}:
	case <-ctx.Done():
		<-s.queue
		return nil, ctx.Err()
	}
	return func() { <-s.working; <-s.queue }, nil
}

// RunRequest is the POST /v1/run body. Config, when present, is a strict
// partial overlay on the server's base configuration: fields present
// override, absent fields keep their base value, unknown fields are a 400.
type RunRequest struct {
	Workload string `json:"workload"`
	Insts    int    `json:"insts,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Warmup   uint64 `json:"warmup,omitempty"`
	CPUs     int    `json:"cpus,omitempty"`
	// Sampling opts the run into sampled simulation (fast-forward +
	// detailed measurement windows). Omitted or null means a full run.
	// Sampled results are estimates and hash to their own cache keys, so
	// they never serve (or get served by) full-run requests; the response's
	// stats carry a "sampling" block identifying the mode.
	Sampling *config.Sampling `json:"sampling,omitempty"`
	Config   json.RawMessage  `json:"config,omitempty"`
}

// RunResponse is the POST /v1/run reply. Stats is the same system.Summary
// the sparc64sim -json flag emits, so server and CLI output share one
// encoder.
type RunResponse struct {
	Key   string         `json:"key"`
	Cache string         `json:"cache"`
	Stats system.Summary `json:"stats"`
}

// ResolvedRun is a RunRequest resolved against a base configuration: the
// model to run, the workload profile, the effective options, and the
// content address the result is cached under. The gateway resolves
// requests with the same code path the worker executes, so both sides
// agree byte-for-byte on every request's placement key.
type ResolvedRun struct {
	Model   *core.Model
	Profile workload.Profile
	Opt     core.RunOptions
	Key     runcache.Key
}

// ResolveRun validates req against base and computes its cache key.
// defaultInsts fills an absent insts field (<= 0 means the server
// default of 1,000,000). Every error is a client error (HTTP 400).
func ResolveRun(base config.Config, defaultInsts int, req RunRequest) (ResolvedRun, error) {
	var rr ResolvedRun
	if base.Name == "" {
		base = config.Base()
	}
	if defaultInsts <= 0 {
		defaultInsts = 1_000_000
	}
	prof, ok := workload.ByName(req.Workload)
	if !ok {
		return rr, fmt.Errorf("unknown workload %q (have %v)", req.Workload, workload.Names())
	}
	cfg := base
	if len(req.Config) > 0 {
		// Same strict overlay semantics as sparc64sim -config: present
		// fields override, unknown fields are rejected, the result is
		// validated.
		var err error
		cfg, err = config.OverlayJSON(cfg, bytes.NewReader(req.Config))
		if err != nil {
			return rr, fmt.Errorf("bad config overlay: %w", err)
		}
	}
	switch {
	case req.CPUs > 0:
		cfg = cfg.WithCPUs(req.CPUs)
	case prof.SharedBytes > 0 && cfg.CPUs <= 1:
		// Mirror the sparc64sim CLI: MP workloads default to the
		// paper's 16-processor system.
		cfg = cfg.WithCPUs(16)
	}
	if req.Insts < 0 {
		return rr, fmt.Errorf("insts must be >= 0")
	}
	opt := core.RunOptions{
		Insts:  req.Insts,
		Seed:   req.Seed,
		Warmup: req.Warmup,
		// One request is one job: harness fan-out stays with the
		// admission gate, not inside a single run.
		Workers: 1,
	}
	if opt.Insts == 0 {
		opt.Insts = defaultInsts
	}
	if req.Sampling != nil {
		if err := req.Sampling.Validate(); err != nil {
			return rr, fmt.Errorf("bad sampling: %w", err)
		}
		opt.Sample = *req.Sampling
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return rr, fmt.Errorf("bad configuration: %w", err)
	}
	key, err := m.RunKey(prof, opt)
	if err != nil {
		return rr, fmt.Errorf("hash run: %w", err)
	}
	return ResolvedRun{Model: m, Profile: prof, Opt: opt, Key: key}, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.runRequests.Inc()
	if s.draining.Load() {
		// A draining node finishes in-flight work but takes no new runs;
		// 503 tells the gateway to fail over to the next replica.
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rr, err := ResolveRun(s.base, s.defaultInsts, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, outcome, err := s.cache.GetOrRun(r.Context(), rr.Key, func(ctx context.Context) (system.Report, error) {
		release, err := s.admit(ctx)
		if err != nil {
			return system.Report{}, err
		}
		defer release()
		return s.simulate(ctx, rr.Model, rr.Profile, rr.Opt)
	})
	if err == nil {
		s.reg.Counter("sparc64v_server_runs_total",
			"Completed /v1/run requests, by workload and cache outcome.",
			obs.L("workload", rr.Profile.Name), obs.L("outcome", outcome.String())).Inc()
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded):
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusServiceUnavailable, "run cancelled: %v", err)
		default:
			httpError(w, http.StatusInternalServerError, "run failed: %v", err)
		}
		return
	}
	w.Header().Set("X-Model-Version", core.ModelVersion)
	w.Header().Set("X-Cache", outcome.String())
	writeJSON(w, RunResponse{Key: rr.Key.ID(), Cache: outcome.String(), Stats: rep.Summary()})
}

// EstimateRequest is the POST /v1/estimate body: the same workload naming
// and strict configuration overlay as /v1/run, minus the run-shaping fields
// (insts/seed/warmup belong to simulation; the analytic tier's operating
// point is fixed by its calibration artifact).
type EstimateRequest struct {
	Workload string          `json:"workload"`
	CPUs     int             `json:"cpus,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
}

// handleEstimate serves the analytic fast tier: a closed-form CPI estimate
// with confidence band and calibration provenance (the analytic.Estimate
// JSON). It never enters the admission queue — the computation is pure
// arithmetic over the embedded calibration artifact, so an estimate stays
// sub-millisecond even while every worker slot is busy simulating.
// Uncalibrated requests (MP configurations, workloads outside the artifact)
// get 404 with a fallback hint; a stale artifact (model version behind the
// binary) gets 503, because serving numbers fitted against a different
// simulator would be silently wrong.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.estimateRequests.Inc()
	outcomeCounter := func(outcome string) *obs.Counter {
		return s.reg.Counter("sparc64v_server_estimates_total",
			"POST /v1/estimate outcomes: served, or fallback-to-/v1/run.",
			obs.L("outcome", outcome))
	}
	var req EstimateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	prof, ok := workload.ByName(req.Workload)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown workload %q (have %v)", req.Workload, workload.Names())
		return
	}
	cfg := s.base
	if len(req.Config) > 0 {
		var err error
		cfg, err = config.OverlayJSON(cfg, bytes.NewReader(req.Config))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad config overlay: %v", err)
			return
		}
	}
	// Mirror /v1/run's CPU-count semantics so the two tiers price the same
	// machine for the same request body.
	switch {
	case req.CPUs > 0:
		cfg = cfg.WithCPUs(req.CPUs)
	case prof.SharedBytes > 0 && cfg.CPUs <= 1:
		cfg = cfg.WithCPUs(16)
	}
	if s.cal.ModelVersion != core.ModelVersion {
		outcomeCounter("fallback_stale").Inc()
		httpError(w, http.StatusServiceUnavailable,
			"calibration artifact is for model %q but this binary is %q; use POST /v1/run",
			s.cal.ModelVersion, core.ModelVersion)
		return
	}
	est, err := s.cal.Estimate(cfg, prof.Name)
	if err != nil {
		if errors.Is(err, analytic.ErrUncalibrated) {
			outcomeCounter("fallback_uncalibrated").Inc()
			httpError(w, http.StatusNotFound, "%v; use POST /v1/run", err)
			return
		}
		httpError(w, http.StatusBadRequest, "bad configuration: %v", err)
		return
	}
	outcomeCounter("served").Inc()
	w.Header().Set("X-Model-Version", core.ModelVersion)
	writeJSON(w, est)
}

// StudyResponse is the GET /v1/studies/{id} reply.
type StudyResponse struct {
	Study   string        `json:"study"`
	Results []StudyResult `json:"results"`
}

// StudyResult is one rendered paper artifact.
type StudyResult struct {
	ID    string   `json:"id"`
	Title string   `json:"title"`
	Table string   `json:"table"`
	Chart string   `json:"chart,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	s.studyRequests.Inc()
	id := r.PathValue("id")
	var study expt.Study
	found := false
	var slugs []string
	// The sweep registry plus the verification catalog: the harness is
	// addressable like any figure here, but stays out of Studies() so it
	// never appears in EXPERIMENTS.md.
	for _, st := range append(expt.Studies(), expt.VerificationStudy()) {
		slugs = append(slugs, st.Slug())
		if st.Slug() == id {
			study, found = st, true
		}
	}
	if !found {
		sort.Strings(slugs)
		httpError(w, http.StatusNotFound, "unknown study %q (have %v)", id, slugs)
		return
	}
	s.reg.Counter("sparc64v_study_requests_total",
		"Study requests served, by study slug.", obs.L("study", id)).Inc()
	opt := core.RunOptions{
		Insts:   s.defaultInsts,
		Workers: s.workers,
		Cache:   s.cache,
	}
	if v := r.URL.Query().Get("insts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad insts %q", v)
			return
		}
		opt.Insts = n
	}
	if v := r.URL.Query().Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		opt.Seed = n
	}
	// A study is one admitted job however many runs it fans out to; its
	// internal fan-out reuses the server's worker budget via opt.Workers.
	release, err := s.admit(r.Context())
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			httpError(w, http.StatusTooManyRequests, "%v", err)
		} else {
			httpError(w, http.StatusServiceUnavailable, "cancelled: %v", err)
		}
		return
	}
	defer release()
	results, err := study.Run(r.Context(), opt)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "study failed: %v", err)
		return
	}
	resp := StudyResponse{Study: id}
	for i := range results {
		res := &results[i]
		sr := StudyResult{ID: res.ID, Title: res.Title, Chart: res.Chart, Notes: res.Notes}
		if res.Table != nil {
			sr.Table = res.Table.String()
		}
		resp.Results = append(resp.Results, sr)
	}
	writeJSON(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// registerPageSeries creates the per-endpoint request counters at 0 and
// exposes state the server and its cache already own as func-backed
// series, read when /metrics renders: the legacy rejected count (the
// sparc64v_http_shed_total value), the run-cache tier counters, the
// in-memory entry count, and admission occupancy.
func (s *Server) registerPageSeries() {
	requests := func(endpoint string) *obs.Counter {
		return s.reg.Counter("sparc64v_requests_total",
			"HTTP requests received per endpoint.", obs.L("endpoint", endpoint))
	}
	s.runRequests, s.studyRequests, s.estimateRequests = requests("run"), requests("study"), requests("estimate")
	s.reg.CounterFunc("sparc64v_rejected_total", "Requests shed with 429 because the queue was full.",
		s.rejectedShed.Value)
	const hitsHelp = "Run-cache hits by tier."
	s.reg.CounterFunc("sparc64v_cache_hits_total", hitsHelp,
		func() uint64 { return s.cache.Stats().MemoryHits }, obs.L("tier", "memory"))
	s.reg.CounterFunc("sparc64v_cache_hits_total", hitsHelp,
		func() uint64 { return s.cache.Stats().DiskHits }, obs.L("tier", "disk"))
	s.reg.CounterFunc("sparc64v_cache_misses_total", "Run-cache misses (simulations started).",
		func() uint64 { return s.cache.Stats().Misses })
	s.reg.CounterFunc("sparc64v_cache_shared_total", "Requests that joined an in-flight identical run.",
		func() uint64 { return s.cache.Stats().Shared })
	s.reg.CounterFunc("sparc64v_cache_corrupt_total", "Disk entries rejected by integrity checks.",
		func() uint64 { return s.cache.Stats().Corrupt })
	s.reg.GaugeFunc("sparc64v_cache_entries", "Entries in the in-memory tier.",
		func() int64 { return int64(s.cache.Len()) })
	s.reg.GaugeFunc("sparc64v_inflight_runs", "Simulations currently running.",
		func() int64 { return int64(len(s.working)) })
	s.reg.GaugeFunc("sparc64v_queue_depth", "Admitted jobs waiting for a worker slot.",
		func() int64 { return int64(max(len(s.queue)-len(s.working), 0)) })
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// decodeBody strictly decodes a POST body of at most MaxBodyBytes into v.
// On failure it writes the client error — 413 for an oversized body, 400
// otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
		} else {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
