// Package gateway is the cluster front door: a thin HTTP proxy that
// routes experiment requests across a pool of simd workers.
//
// Placement is by consistent hashing of the run's content address — the
// same runcache key the workers cache under — so identical requests
// always land on the same node and the cluster deduplicates simulations
// without any coordination: ring affinity concentrates a key on one
// worker, that worker's in-process singleflight collapses concurrent
// identical requests, and the peer-cache tier covers the failover case
// where a key's replica moved.
//
// The gateway holds no state worth preserving: routing tables are
// derived from configuration, health is re-observed continuously, and
// every response a client sees came verbatim from a worker. Losing the
// gateway loses nothing but connectivity.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/ring"
	"sparc64v/internal/server"
)

// Worker names one member of the pool. Name is the ring identity and the
// bounded metrics label; URL is where requests go. Keeping them separate
// means a worker can change address (restart on a new port) without
// remapping every key it owned.
type Worker struct {
	Name string
	URL  string
}

// ParseWorkers parses a comma-separated worker list. Each element is
// either "name=url" or a bare URL (the name defaults to the URL's
// host:port).
func ParseWorkers(s string) ([]Worker, error) {
	var out []Worker
	for _, el := range strings.Split(s, ",") {
		el = strings.TrimSpace(el)
		if el == "" {
			continue
		}
		w := Worker{}
		if name, rest, ok := strings.Cut(el, "="); ok && !strings.Contains(name, "/") {
			w.Name, w.URL = strings.TrimSpace(name), strings.TrimSpace(rest)
		} else {
			w.URL = el
		}
		u, err := url.Parse(w.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: bad worker URL %q", el)
		}
		if w.Name == "" {
			w.Name = u.Host
		}
		w.URL = strings.TrimRight(w.URL, "/")
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, errors.New("gateway: no workers configured")
	}
	return out, nil
}

// Config parameterizes a Gateway.
type Config struct {
	// Workers is the pool; required, at least one.
	Workers []Worker
	// Base and DefaultInsts must match the workers' configuration: the
	// gateway resolves each request with server.ResolveRun to compute
	// the same cache key the worker will, and routes on it. Zero values
	// mean config.Base() and 1,000,000 — the worker defaults.
	Base         config.Config
	DefaultInsts int
	// RetryBudget caps worker attempts per request; 0 means every
	// replica once.
	RetryBudget int
	// LoadFactor is the bounded-load spill threshold (a node above
	// ceil(factor·mean) of in-flight gateway requests is skipped while a
	// less-loaded replica exists); 0 means 1.25.
	LoadFactor float64
	// Client performs proxied requests; nil means a dedicated client
	// with no overall timeout (simulations are long; per-request bounds
	// come from the client's context).
	Client *http.Client
	// Registry receives the gateway metrics; nil means obs.Default().
	Registry *obs.Registry
	// HealthEvery is the active health-probe interval for Run; 0 means
	// 2 seconds.
	HealthEvery time.Duration
}

// workerState is the gateway's live view of one worker.
type workerState struct {
	Worker
	healthy  atomic.Bool // last probe or proxy attempt succeeded
	draining atomic.Bool // /healthz or /v1/run said "draining"
	inflight atomic.Int64
}

// Gateway routes requests across the pool. Construct with New, serve
// Handler(); optionally call Run (or ProbeHealth from tests) to keep
// health fresh between request-driven observations.
type Gateway struct {
	ring        *ring.Ring
	workers     map[string]*workerState
	base        config.Config
	insts       int
	retryBudget int
	loadFactor  float64
	client      *http.Client
	reg         *obs.Registry
	healthEvery time.Duration
	now         func() time.Time

	mux *http.ServeMux

	// keyFlights pins every in-flight routing key to the node currently
	// serving it, so concurrent identical requests all land on one
	// worker and its in-process singleflight collapses them into one
	// simulation — without this, bounded-load spill would scatter a
	// thundering herd across replicas and each would simulate.
	keyMu      sync.Mutex
	keyFlights map[string]*keyFlight

	// Pre-registered metric families: creating them in New pins their
	// presence (and zero values) in the exposition, so the golden test
	// sees a stable page and node labels stay bounded by the pool.
	retriesError    *obs.Counter
	retriesDrain    *obs.Counter
	retriesOverload *obs.Counter
	healthyWorkers  *obs.Gauge
	proxySeconds    *obs.Histogram
}

// New builds a Gateway over the configured pool.
func New(c Config) (*Gateway, error) {
	if len(c.Workers) == 0 {
		return nil, errors.New("gateway: Config.Workers is required")
	}
	names := make([]string, 0, len(c.Workers))
	workers := make(map[string]*workerState, len(c.Workers))
	for _, w := range c.Workers {
		if w.Name == "" || w.URL == "" {
			return nil, fmt.Errorf("gateway: worker needs name and URL (got %+v)", w)
		}
		if _, dup := workers[w.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate worker name %q", w.Name)
		}
		ws := &workerState{Worker: w}
		ws.healthy.Store(true) // optimistic until observed otherwise
		workers[w.Name] = ws
		names = append(names, w.Name)
	}
	rg, err := ring.New(names, ring.Options{})
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if c.Base.Name == "" {
		c.Base = config.Base()
	}
	if c.DefaultInsts <= 0 {
		c.DefaultInsts = 1_000_000
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = len(c.Workers)
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2 * time.Second
	}
	g := &Gateway{
		ring:        rg,
		keyFlights:  make(map[string]*keyFlight),
		workers:     workers,
		base:        c.Base,
		insts:       c.DefaultInsts,
		retryBudget: c.RetryBudget,
		loadFactor:  c.LoadFactor,
		client:      c.Client,
		reg:         c.Registry,
		healthEvery: c.HealthEvery,
		now:         time.Now,
		retriesError: c.Registry.Counter("sparc64v_gateway_retries_total",
			"Failed worker attempts that moved a request to the next replica, by reason.",
			obs.L("reason", "error")),
		retriesDrain: c.Registry.Counter("sparc64v_gateway_retries_total",
			"Failed worker attempts that moved a request to the next replica, by reason.",
			obs.L("reason", "drain")),
		retriesOverload: c.Registry.Counter("sparc64v_gateway_retries_total",
			"Failed worker attempts that moved a request to the next replica, by reason.",
			obs.L("reason", "overload")),
		healthyWorkers: c.Registry.Gauge("sparc64v_gateway_healthy_workers",
			"Workers whose last health observation succeeded."),
		proxySeconds: c.Registry.Histogram("sparc64v_gateway_request_seconds",
			"Gateway end-to-end request latency (all worker attempts included).", nil),
	}
	// Pin the per-node and per-outcome families so the exposition is
	// stable from the first scrape and the label sets are visibly
	// bounded: one node label per configured worker, outcomes from the
	// runcache vocabulary.
	for _, name := range names {
		g.proxiedCounter(name, "ok").Add(0)
		g.proxiedCounter(name, "failed").Add(0)
	}
	for _, outcome := range []string{"hit", "hit-disk", "hit-peer", "miss", "dedup"} {
		g.outcomeCounter(outcome).Add(0)
	}
	g.healthyWorkers.Set(int64(len(names)))

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", g.handleRun)
	mux.HandleFunc("POST /v1/estimate", g.handleEstimate)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux = mux
	return g, nil
}

func (g *Gateway) proxiedCounter(node, result string) *obs.Counter {
	return g.reg.Counter("sparc64v_gateway_proxied_total",
		"Worker attempts, by node and result. Node labels are bounded by the configured pool.",
		obs.L("node", node), obs.L("result", result))
}

func (g *Gateway) outcomeCounter(outcome string) *obs.Counter {
	return g.reg.Counter("sparc64v_gateway_cache_outcomes_total",
		"Cluster-wide cache outcomes of successful runs, from the workers' X-Cache header.",
		obs.L("outcome", outcome))
}

func (g *Gateway) requestCounter(endpoint string) *obs.Counter {
	return g.reg.Counter("sparc64v_gateway_requests_total",
		"Requests accepted by the gateway, by endpoint.", obs.L("endpoint", endpoint))
}

// Handler returns the gateway's root handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Run keeps worker health fresh until ctx is cancelled: a proxy failure
// marks a node unhealthy immediately; this loop is how it gets back in.
func (g *Gateway) Run(ctx context.Context) {
	t := time.NewTicker(g.healthEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.ProbeHealth(ctx)
		}
	}
}

// ProbeHealth checks every worker's /healthz once and updates the
// gateway's view: 200 means healthy, 503 means draining (up, but not
// taking new runs), anything else means down.
func (g *Gateway) ProbeHealth(ctx context.Context) {
	healthy := 0
	for _, ws := range g.workers {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, ws.URL+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := g.client.Do(req)
		cancel()
		switch {
		case err != nil:
			ws.healthy.Store(false)
		case resp.StatusCode == http.StatusOK:
			ws.healthy.Store(true)
			ws.draining.Store(false)
		case resp.StatusCode == http.StatusServiceUnavailable:
			ws.healthy.Store(true)
			ws.draining.Store(true)
		default:
			ws.healthy.Store(false)
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if ws.healthy.Load() && !ws.draining.Load() {
			healthy++
		}
	}
	g.healthyWorkers.Set(int64(healthy))
}

// keyFlight tracks one in-flight routing key: the node it is pinned to
// and how many requests are riding the pin.
type keyFlight struct {
	node string
	refs int
}

// acquireKey pins key to candidate unless an earlier request already
// pinned it, and returns the pinned node. Pair with releaseKey.
func (g *Gateway) acquireKey(key, candidate string) string {
	g.keyMu.Lock()
	defer g.keyMu.Unlock()
	if f, ok := g.keyFlights[key]; ok {
		f.refs++
		return f.node
	}
	g.keyFlights[key] = &keyFlight{node: candidate, refs: 1}
	return candidate
}

// repinKey moves an existing pin to a new node (failover), so joiners
// follow the request to the replica that is actually serving it.
func (g *Gateway) repinKey(key, node string) {
	g.keyMu.Lock()
	defer g.keyMu.Unlock()
	if f, ok := g.keyFlights[key]; ok {
		f.node = node
	}
}

func (g *Gateway) releaseKey(key string) {
	g.keyMu.Lock()
	defer g.keyMu.Unlock()
	if f, ok := g.keyFlights[key]; ok {
		if f.refs--; f.refs <= 0 {
			delete(g.keyFlights, key)
		}
	}
}

// spillFloor is the minimum per-node in-flight depth before bounded-load
// spill engages. At trivial load the strict bound is hair-trigger (one
// in-flight request can look "hot" in a small pool) and spilling would
// only dilute cache affinity; past this depth a queue is real and moving
// to a sibling replica is worth the colder cache.
const spillFloor = 8

// candidates returns worker names in the order the request should try
// them: the key's ring sequence, available nodes first, rotated so the
// first available node under the bounded-load threshold leads. Nodes
// believed down or draining stay in the list as a last resort — a stale
// health view must degrade to a wasted attempt, not an outage.
func (g *Gateway) candidates(key string) []string {
	seq := g.ring.Sequence(key)
	avail := make([]string, 0, len(seq))
	rest := make([]string, 0, len(seq))
	total := 0
	for _, name := range seq {
		ws := g.workers[name]
		if ws.healthy.Load() && !ws.draining.Load() {
			avail = append(avail, name)
			total += int(ws.inflight.Load())
		} else {
			rest = append(rest, name)
		}
	}
	if len(avail) == 0 {
		return seq
	}
	// Bounded load over the gateway's own in-flight view: spill past a
	// hot primary to the next replica, never shed (workers own 429).
	bound := int(g.loadFactor*float64(total+1)/float64(len(avail))) + 1
	if bound < spillFloor {
		bound = spillFloor
	}
	for i, name := range avail {
		if int(g.workers[name].inflight.Load()) < bound {
			rotated := append(append(make([]string, 0, len(seq)), avail[i:]...), avail[:i]...)
			return append(rotated, rest...)
		}
	}
	return append(avail, rest...)
}

// handleRun proxies POST /v1/run: resolve the request to its cache key
// with the exact code the worker runs, then route by that key.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	g.requestCounter("run").Inc()
	t0 := g.now()
	defer func() { g.proxySeconds.Observe(g.now().Sub(t0).Seconds()) }()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req server.RunRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rr, err := server.ResolveRun(g.base, g.insts, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.route(w, r, "/v1/run", body, rr.Key.ID())
}

// readBody reads a POST body of at most server.MaxBodyBytes, the worker's
// own bound. On failure it writes the client error — 413 for an oversized
// body, 400 otherwise — and returns false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", server.MaxBodyBytes)
		} else {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// handleEstimate proxies POST /v1/estimate. Estimates are pure
// arithmetic, so placement is about load spreading, not cache locality;
// hashing the body gives a stable, coordination-free spread that keeps
// repeated identical estimates on one node's warm code path.
func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	g.requestCounter("estimate").Inc()
	t0 := g.now()
	defer func() { g.proxySeconds.Observe(g.now().Sub(t0).Seconds()) }()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	sum := sha256.Sum256(body)
	g.route(w, r, "/v1/estimate", body, hex.EncodeToString(sum[:]))
}

// route forwards body to the key's candidate workers until one gives a
// terminal answer. Failover semantics:
//
//   - transport error: mark the node down, try the next replica;
//   - 503 (draining or cancelled): mark draining, try the next replica;
//   - 429 (queue full): try the next replica — a different node may have
//     room — and if every attempt sheds, the client sees the 429, so
//     overload is never silently swallowed;
//   - anything else (200, 4xx, 5xx): the worker's verdict, returned
//     verbatim.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, path string, body []byte, key string) {
	seq := g.candidates(key)
	// An in-flight identical request pins the key to its node; following
	// the pin is what turns per-worker singleflight into cluster-wide
	// singleflight.
	pinned := g.acquireKey(key, seq[0])
	defer g.releaseKey(key)
	if pinned != seq[0] {
		reordered := make([]string, 0, len(seq))
		reordered = append(reordered, pinned)
		for _, name := range seq {
			if name != pinned {
				reordered = append(reordered, name)
			}
		}
		seq = reordered
	}

	var lastStatus int
	var lastHeader http.Header
	var lastBody []byte
	attempts := 0
	for _, name := range seq {
		if attempts >= g.retryBudget {
			break
		}
		if r.Context().Err() != nil {
			return // client gone; nothing to answer
		}
		attempts++
		g.repinKey(key, name)
		ws := g.workers[name]
		ws.inflight.Add(1)
		resp, err := g.forward(r.Context(), ws, path, body, r.Header.Get("Content-Type"))
		ws.inflight.Add(-1)
		if err != nil {
			ws.healthy.Store(false)
			g.proxiedCounter(name, "failed").Inc()
			g.retriesError.Inc()
			continue
		}
		rbody, rerr := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes))
		resp.Body.Close()
		if rerr != nil {
			ws.healthy.Store(false)
			g.proxiedCounter(name, "failed").Inc()
			g.retriesError.Inc()
			continue
		}
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			ws.draining.Store(true)
			g.proxiedCounter(name, "failed").Inc()
			g.retriesDrain.Inc()
		case http.StatusTooManyRequests:
			g.proxiedCounter(name, "failed").Inc()
			g.retriesOverload.Inc()
		default:
			g.proxiedCounter(name, "ok").Inc()
			ws.healthy.Store(true)
			if resp.StatusCode == http.StatusOK {
				if outcome := resp.Header.Get("X-Cache"); outcome != "" {
					g.outcomeCounter(outcome).Inc()
				}
			}
			writeUpstream(w, resp.StatusCode, resp.Header, rbody)
			return
		}
		lastStatus, lastHeader, lastBody = resp.StatusCode, resp.Header, rbody
	}
	if lastStatus != 0 {
		// Every replica shed or was draining: relay the final upstream
		// verdict so 429 stays a 429 end to end.
		writeUpstream(w, lastStatus, lastHeader, lastBody)
		return
	}
	httpError(w, http.StatusBadGateway, "no worker reachable for this request")
}

// maxPeerEntryBytes mirrors the worker-side response bound.
const maxPeerEntryBytes = 16 << 20

// forward performs one worker attempt.
func (g *Gateway) forward(ctx context.Context, ws *workerState, path string, body []byte, contentType string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ws.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType == "" {
		contentType = "application/json"
	}
	req.Header.Set("Content-Type", contentType)
	return g.client.Do(req)
}

// writeUpstream relays a worker response verbatim, keeping the headers
// clients and tests rely on (node attribution, cache outcome, model
// version, content type).
func writeUpstream(w http.ResponseWriter, status int, header http.Header, body []byte) {
	for _, h := range []string{"Content-Type", "X-Node", "X-Cache", "X-Model-Version"} {
		if v := header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, ws := range g.workers {
		if ws.healthy.Load() && !ws.draining.Load() {
			healthy++
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if healthy == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "%d/%d workers available\n", healthy, len(g.workers))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.reg.WritePrometheus(w)
}

// WorkerView is one row of Status.
type WorkerView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
	Inflight int64  `json:"inflight"`
}

// Status snapshots the gateway's view of the pool (tests; debugging).
func (g *Gateway) Status() []WorkerView {
	out := make([]WorkerView, 0, len(g.workers))
	for _, name := range g.ring.Nodes() {
		ws := g.workers[name]
		out = append(out, WorkerView{
			Name:     ws.Name,
			URL:      ws.URL,
			Healthy:  ws.healthy.Load(),
			Draining: ws.draining.Load(),
			Inflight: ws.inflight.Load(),
		})
	}
	return out
}

// ResolveKey computes the routing key for a run request body — exposed
// so tests and the cluster-replay check can predict placement.
func (g *Gateway) ResolveKey(req server.RunRequest) (string, error) {
	rr, err := server.ResolveRun(g.base, g.insts, req)
	if err != nil {
		return "", err
	}
	return rr.Key.ID(), nil
}

// PlanFor returns the candidate order the gateway would try for a run
// request right now (health- and load-dependent; tests).
func (g *Gateway) PlanFor(req server.RunRequest) ([]string, error) {
	key, err := g.ResolveKey(req)
	if err != nil {
		return nil, err
	}
	return g.candidates(key), nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
