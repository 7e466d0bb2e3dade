package gateway

// The cluster fault-injection suite: real simd servers (real simulator,
// short traces) behind a real gateway, with faults injected the way they
// happen in production — a worker process dying mid-sweep, a peer
// serving corrupted cache bytes, a node draining under load, and a
// thundering herd of identical requests. Every test asserts the two
// cluster invariants: results are byte-identical to a single node, and
// no accepted work is lost.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/server"
)

// clusterInsts keeps real simulations short enough for tests while long
// enough to exercise the full pipeline.
const clusterInsts = 20_000

// planFor returns the candidate order the gateway would try for a run
// request right now: its routing key placed on the ring, filtered by
// current health.
func planFor(g *Gateway, req server.RunRequest) ([]string, error) {
	rr, err := server.ResolveRun(config.Base(), g.insts, req)
	if err != nil {
		return nil, err
	}
	return g.candidates(rr.Key.ID()), nil
}

// node is one simd worker under test control.
type node struct {
	name  string
	cache *runcache.Cache
	srv   *server.Server
	ts    *httptest.Server
}

// startNode launches one worker with its own cache and registry.
func startNode(t *testing.T, name string) *node {
	t.Helper()
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Cache:        cache,
		Workers:      2,
		DefaultInsts: clusterInsts,
		NodeID:       name,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &node{name: name, cache: cache, srv: srv, ts: ts}
}

// startCluster launches n workers with full peer meshing and a gateway
// in front of them.
func startCluster(t *testing.T, n int) ([]*node, *Gateway, *httptest.Server) {
	t.Helper()
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = startNode(t, fmt.Sprintf("n%d", i))
	}
	for i, nd := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.ts.URL)
			}
		}
		if len(peers) > 0 {
			nd.srv.SetPeers(peers)
		}
	}
	workers := make([]Worker, n)
	for i, nd := range nodes {
		workers[i] = Worker{Name: nd.name, URL: nd.ts.URL}
	}
	gw, err := New(Config{
		Workers:      workers,
		DefaultInsts: clusterInsts,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := httptest.NewServer(gw.Handler())
	t.Cleanup(gwts.Close)
	return nodes, gw, gwts
}

// runVerdict is a decoded /v1/run response with the stats kept raw for
// byte comparison.
type runVerdict struct {
	Key   string          `json:"key"`
	Cache string          `json:"cache"`
	Stats json.RawMessage `json:"stats"`
}

func postRunBody(t *testing.T, url, body string) (int, runVerdict, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v runVerdict
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("decode run response: %v\n%s", err, b)
		}
	}
	return resp.StatusCode, v, resp.Header
}

// totalSimulations counts actual simulator executions across the pool;
// cache misses are the only outcome that runs the model.
func totalSimulations(nodes []*node) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.cache.Stats().Misses
	}
	return n
}

// sweepBodies is the standard 4-config sweep the fault tests run.
func sweepBodies() []string {
	return []string{
		`{"workload":"specint95","seed":1}`,
		`{"workload":"specint95","seed":2}`,
		`{"workload":"specint2000","seed":1}`,
		`{"workload":"specfp95","seed":3}`,
	}
}

// TestClusterSurvivesWorkerKillMidSweep: a 3-node cluster loses a worker
// halfway through a sweep. Every request still succeeds, and every
// result is byte-identical to the single-node baseline.
func TestClusterSurvivesWorkerKillMidSweep(t *testing.T) {
	bodies := sweepBodies()

	// Baseline: the same sweep on a lone worker through its own gateway.
	_, _, soloURL := startCluster(t, 1)
	baseline := make(map[string]runVerdict, len(bodies))
	for _, body := range bodies {
		code, v, _ := postRunBody(t, soloURL.URL, body)
		if code != http.StatusOK {
			t.Fatalf("baseline %s: %d", body, code)
		}
		baseline[body] = v
	}

	nodes, gw, gwts := startCluster(t, 3)
	for _, body := range bodies[:2] {
		code, v, _ := postRunBody(t, gwts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("pre-kill %s: %d", body, code)
		}
		if string(v.Stats) != string(baseline[body].Stats) {
			t.Fatalf("pre-kill %s: stats differ from single-node baseline", body)
		}
	}

	// Kill the worker that would serve the next request, so the failover
	// path is exercised deterministically rather than by luck.
	var req server.RunRequest
	if err := json.Unmarshal([]byte(bodies[2]), &req); err != nil {
		t.Fatal(err)
	}
	plan, err := planFor(gw, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if nd.name == plan[0] {
			nd.ts.CloseClientConnections()
			nd.ts.Close()
		}
	}

	// The rest of the sweep, plus a replay of the whole thing: all served,
	// all byte-identical. Replayed configs may come from any cache tier of
	// the surviving nodes.
	for _, body := range append(bodies[2:], bodies...) {
		code, v, _ := postRunBody(t, gwts.URL, body)
		if code != http.StatusOK {
			t.Fatalf("post-kill %s: %d", body, code)
		}
		if v.Key != baseline[body].Key {
			t.Fatalf("post-kill %s: key %s != baseline %s", body, v.Key, baseline[body].Key)
		}
		if string(v.Stats) != string(baseline[body].Stats) {
			t.Fatalf("post-kill %s: stats differ from single-node baseline:\n%s\n%s",
				body, v.Stats, baseline[body].Stats)
		}
	}
	if n := len(gw.workers); n != 3 {
		t.Fatalf("pool has %d workers, want 3", n)
	}
}

// TestCorruptPeerEntryRejected: a peer that answers cache probes with
// garbage costs the node a rejected fetch — counted in stats — and the
// node simulates the correct answer itself.
func TestCorruptPeerEntryRejected(t *testing.T) {
	// A "peer" that confidently serves a corrupted envelope for every id.
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"key":{"config":"x"},"sha256":"deadbeef","report":{"cycles":1}}`)
	}))
	defer corrupt.Close()

	nd := startNode(t, "n0")
	nd.srv.SetPeers([]string{corrupt.URL})
	gw, err := New(Config{
		Workers:      []Worker{{Name: nd.name, URL: nd.ts.URL}},
		DefaultInsts: clusterInsts,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := httptest.NewServer(gw.Handler())
	defer gwts.Close()

	code, v, _ := postRunBody(t, gwts.URL, `{"workload":"specint95","seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("run with corrupt peer: %d", code)
	}
	if v.Cache != "miss" {
		t.Fatalf("cache outcome = %q, want miss (corrupt peer must not satisfy the request)", v.Cache)
	}
	s := nd.cache.Stats()
	if s.PeerCorrupt != 1 {
		t.Fatalf("PeerCorrupt = %d, want 1", s.PeerCorrupt)
	}
	if s.PeerHits != 0 {
		t.Fatalf("PeerHits = %d, want 0", s.PeerHits)
	}
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (the node simulated the truth)", s.Misses)
	}
}

// TestDrainUnderLoadLosesNothing: a node drains while the sweep runs.
// Requests routed at it fail over (503 → next replica) and every request
// in flight or after the drain completes successfully.
func TestDrainUnderLoadLosesNothing(t *testing.T) {
	nodes, gw, gwts := startCluster(t, 3)

	// Find a request whose primary is node 0, so draining node 0
	// deterministically exercises the 503 failover path.
	var victim string
	for seed := 1; seed <= 64; seed++ {
		body := fmt.Sprintf(`{"workload":"specint95","seed":%d}`, seed)
		var req server.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		plan, err := planFor(gw, req)
		if err != nil {
			t.Fatal(err)
		}
		if plan[0] == nodes[0].name {
			victim = body
			break
		}
	}
	if victim == "" {
		t.Fatal("no seed in 1..64 routes to n0 first; ring is broken")
	}

	nodes[0].srv.DrainStarted()

	// The request aimed at the draining node fails over and succeeds.
	code, v, hdr := postRunBody(t, gwts.URL, victim)
	if code != http.StatusOK {
		t.Fatalf("drain failover: %d", code)
	}
	if got := hdr.Get("X-Node"); got == nodes[0].name {
		t.Fatalf("request served by draining node %s", got)
	}
	if v.Cache != "miss" {
		t.Fatalf("failover outcome = %q, want miss on the replica", v.Cache)
	}
	if got := gw.retriesDrain.Value(); got == 0 {
		t.Fatal("drain failover not counted in retries{reason=drain}")
	}

	// A concurrent burst of distinct work during the drain: nothing lost,
	// nothing shed (the cluster has capacity), every run exactly once.
	const burst = 12
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(gwts.URL+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"workload":"specint95","seed":%d}`, 100+i)))
			if err != nil {
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("burst request returned %d during drain, want 200", c)
		}
	}
	if got := nodes[0].cache.Stats().Misses; got != 0 {
		t.Fatalf("draining node simulated %d runs after DrainStarted", got)
	}

	// After a health probe the gateway stops planning the drained node
	// first for anything.
	gw.ProbeHealth(t.Context())
	var req server.RunRequest
	if err := json.Unmarshal([]byte(victim), &req); err != nil {
		t.Fatal(err)
	}
	plan, err := planFor(gw, req)
	if err != nil {
		t.Fatal(err)
	}
	if plan[0] == nodes[0].name {
		t.Fatal("drained node still planned first after health probe")
	}
	if !gw.workers[nodes[0].name].draining.Load() {
		t.Fatal("gateway does not mark the node draining")
	}
}

// TestSameConfigBurstSimulatesOnce: 50 clients ask for the same run at
// once; ring affinity plus worker singleflight mean the cluster
// simulates exactly once, and every client gets byte-identical stats.
func TestSameConfigBurstSimulatesOnce(t *testing.T) {
	nodes, _, gwts := startCluster(t, 3)
	const clients = 50
	body := `{"workload":"specint95","seed":42}`

	type result struct {
		code  int
		stats string
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(gwts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				results <- result{code: 0}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				results <- result{code: 0}
				return
			}
			var v runVerdict
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(b, &v); err != nil {
					results <- result{code: 0}
					return
				}
			}
			results <- result{code: resp.StatusCode, stats: string(v.Stats)}
		}()
	}
	wg.Wait()
	close(results)

	var stats string
	n := 0
	for r := range results {
		n++
		if r.code != http.StatusOK {
			t.Fatalf("burst client got %d", r.code)
		}
		if stats == "" {
			stats = r.stats
		} else if r.stats != stats {
			t.Fatal("burst clients saw different stats for one config")
		}
	}
	if n != clients {
		t.Fatalf("got %d results, want %d", n, clients)
	}
	if sims := totalSimulations(nodes); sims != 1 {
		t.Fatalf("cluster simulated %d times for one config, want exactly 1", sims)
	}
}

// TestOverloadPreservedEndToEnd: when every replica sheds with 429, the
// client sees the 429 — the gateway never converts backpressure into a
// silent failure or a fake 200.
func TestOverloadPreservedEndToEnd(t *testing.T) {
	shedding := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			httpError(w, http.StatusTooManyRequests, "server overloaded: queue full")
		}))
	}
	w0, w1 := shedding(), shedding()
	defer w0.Close()
	defer w1.Close()

	gw, err := New(Config{
		Workers:      []Worker{{Name: "w0", URL: w0.URL}, {Name: "w1", URL: w1.URL}},
		DefaultInsts: clusterInsts,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts := httptest.NewServer(gw.Handler())
	defer gwts.Close()

	code, _, _ := postRunBody(t, gwts.URL, `{"workload":"specint95","seed":1}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("all-replicas-shedding run = %d, want 429", code)
	}
	if got := gw.retriesOverload.Value(); got != 2 {
		t.Fatalf("overload retries = %d, want 2 (both replicas tried)", got)
	}

	// One replica with room: the request lands there instead.
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"key":"k","cache":"hit","stats":{}}`)
	}))
	defer ok.Close()
	gw2, err := New(Config{
		Workers:      []Worker{{Name: "w0", URL: w0.URL}, {Name: "w1", URL: ok.URL}},
		DefaultInsts: clusterInsts,
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gwts2 := httptest.NewServer(gw2.Handler())
	defer gwts2.Close()
	code, _, _ = postRunBody(t, gwts2.URL, `{"workload":"specint95","seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("one-replica-shedding run = %d, want 200 from the other replica", code)
	}
}

// TestGatewayHealthzReflectsPool: 503 only when no worker is available.
func TestGatewayHealthzReflectsPool(t *testing.T) {
	nodes, gw, gwts := startCluster(t, 2)
	get := func() int {
		resp, err := http.Get(gwts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("healthy pool /healthz = %d", got)
	}
	for _, nd := range nodes {
		nd.srv.DrainStarted()
	}
	gw.ProbeHealth(t.Context())
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("fully-drained pool /healthz = %d, want 503", got)
	}
	waitHealthy := func(want int64) {
		deadline := time.Now().Add(5 * time.Second)
		for gw.healthyWorkers.Value() != want {
			if time.Now().After(deadline) {
				t.Fatalf("healthy workers = %d, want %d", gw.healthyWorkers.Value(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitHealthy(0)
}
