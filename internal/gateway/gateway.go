// Package gateway is the cluster front door: a thin HTTP proxy that
// routes experiment requests across a pool of simd workers.
//
// Placement is by rendezvous hashing (internal/ring) of the run's
// content address — the same runcache key the workers cache under — so
// identical requests always land on the same node and the cluster
// deduplicates simulations without any coordination: ring affinity
// concentrates a key on one worker, that worker's in-process
// singleflight collapses concurrent identical requests, and the
// peer-cache tier covers the failover case where a key's replica moved.
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
	// DefaultInsts must match the workers' setting: the gateway resolves
	// each request against config.Base() with server.ResolveRun to
	// compute the same cache key the worker will, and routes on it. 0
	// means 1,000,000 — the worker default.
	DefaultInsts int
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
}

// Gateway routes requests across the pool. Construct with New, serve
// Handler(); optionally call Run (or ProbeHealth from tests) to keep
// health fresh between request-driven observations.
type Gateway struct {
	ring        *ring.Ring
	workers     map[string]*workerState
	insts       int
	client      *http.Client
	reg         *obs.Registry
	healthEvery time.Duration
	now         func() time.Time

	mux *http.ServeMux

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
	rg, err := ring.New(names)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	if c.DefaultInsts <= 0 {
		c.DefaultInsts = 1_000_000
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
		workers:     workers,
		insts:       c.DefaultInsts,
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
			// Drain and close before cancelling: cancelling first tears
			// down the keep-alive connection, so every probe would dial.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if ws.healthy.Load() && !ws.draining.Load() {
			healthy++
		}
	}
	g.healthyWorkers.Set(int64(healthy))
}

// candidates returns worker names in the order the request should try
// them: the key's ring sequence, available nodes first. Nodes believed
// down or draining stay in the list as a last resort — a stale health
// view must degrade to a wasted attempt, not an outage.
func (g *Gateway) candidates(key string) []string {
	seq := g.ring.Sequence(key)
	avail := make([]string, 0, len(seq))
	var rest []string
	for _, name := range seq {
		if ws := g.workers[name]; ws.healthy.Load() && !ws.draining.Load() {
			avail = append(avail, name)
		} else {
			rest = append(rest, name)
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
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	var req server.RunRequest
	if err := config.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rr, err := server.ResolveRun(config.Base(), g.insts, req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.route(w, r, "/v1/run", body, rr.Key.ID())
}

// handleEstimate proxies POST /v1/estimate. Estimates are pure
// arithmetic, so placement is about load spreading, not cache locality;
// hashing the body gives a stable, coordination-free spread that keeps
// repeated identical estimates on one node's warm code path.
func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	g.requestCounter("estimate").Inc()
	t0 := g.now()
	defer func() { g.proxySeconds.Observe(g.now().Sub(t0).Seconds()) }()
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	sum := sha256.Sum256(body)
	g.route(w, r, "/v1/estimate", body, hex.EncodeToString(sum[:]))
}

// route forwards body to the key's candidate workers, each at most once,
// until one gives a terminal answer. Failover semantics:
//
//   - transport error: mark the node down, try the next replica;
//   - 503 (draining or cancelled): mark draining, try the next replica;
//   - 429 (queue full): try the next replica — a different node may have
//     room; this is the only way overload moves a request off its primary —
//     and if every attempt sheds, the client sees the 429, so overload is
//     never silently swallowed;
//   - anything else (200, 4xx, 5xx): the worker's verdict, returned
//     verbatim.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request, path string, body []byte, key string) {
	var lastStatus int
	var lastHeader http.Header
	var lastBody []byte
	for _, name := range g.candidates(key) {
		if r.Context().Err() != nil {
			return // client gone; nothing to answer
		}
		ws := g.workers[name]
		resp, err := g.forward(r.Context(), ws, path, body, r.Header.Get("Content-Type"))
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

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
