package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// fakeReport fabricates a distinctive report for scripted simulations.
func fakeReport(tag uint64) system.Report {
	r := system.Report{
		Name:      fmt.Sprintf("cfg-%d", tag),
		Workload:  "wl",
		Cycles:    1000 + tag,
		Committed: 500 + tag,
		CPUs:      make([]system.CPUReport, 1),
	}
	r.CPUs[0].Core.Cycles = 900 + tag
	r.CPUs[0].Core.Committed = 450 + tag
	return r
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := runcache.New(runcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRunEndpointEndToEnd drives the real simulator through the HTTP
// surface: a cold POST simulates, an identical POST is a cache hit, and
// the two response bodies are byte-identical except for the cache marker.
func TestRunEndpointEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DefaultInsts: 20_000})
	body := `{"workload":"specint95","insts":20000,"seed":3}`

	resp1, b1 := postRun(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Model-Version"); got != core.ModelVersion {
		t.Fatalf("X-Model-Version = %q, want %q", got, core.ModelVersion)
	}
	var r1, r2 RunResponse
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Fatalf("cold run cache = %q, want miss", r1.Cache)
	}
	if r1.Stats.Committed == 0 || r1.Stats.Cycles == 0 || r1.Stats.IPC == 0 {
		t.Fatalf("cold run stats look empty: %+v", r1.Stats)
	}

	resp2, b2 := postRun(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp2.StatusCode, b2)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Fatalf("warm run cache = %q, want hit", r2.Cache)
	}
	if r1.Key != r2.Key {
		t.Fatalf("keys differ: %s vs %s", r1.Key, r2.Key)
	}
	// Byte-identical stats: the cached report re-encodes exactly.
	s1, _ := json.Marshal(r1.Stats)
	s2, _ := json.Marshal(r2.Stats)
	if string(s1) != string(s2) {
		t.Fatalf("cached stats differ from simulated stats:\n%s\n%s", s1, s2)
	}
}

// TestRunEndpointValidation covers the 400 paths.
func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"quake3"}`},
		{"unknown request field", `{"workload":"specint95","instz":1}`},
		{"unknown config field", `{"workload":"specint95","config":{"NoSuchKnob":1}}`},
		{"negative insts", `{"workload":"specint95","insts":-5}`},
		{"garbage body", `{`},
		// Sampling schedules are validated before the run is admitted
		// (regression: an overlapping schedule must be the client's 400,
		// never a simulation-side failure).
		{"sampling warmup+measure exceeds interval",
			`{"workload":"specint95","insts":1000,"sampling":{"interval_insts":10000,"warmup_insts":6000,"measure_insts":5000}}`},
		{"sampling without measurement window",
			`{"workload":"specint95","insts":1000,"sampling":{"interval_insts":10000}}`},
		{"sampling windows with zero interval",
			`{"workload":"specint95","insts":1000,"sampling":{"measure_insts":1000}}`},
	} {
		resp, b := postRun(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, b)
		}
	}
}

// TestBodySizeLimit pins the POST body bound on both JSON endpoints: a
// valid request padded to exactly MaxBodyBytes is served, one byte more is
// 413, and neither is ever a 5xx. The padding leads the JSON value, so the
// decoder must read the whole body before it can succeed.
func TestBodySizeLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		return fakeReport(uint64(opt.Seed)), nil
	}
	pad := func(body string, size int) string {
		return strings.Repeat(" ", size-len(body)) + body
	}
	for _, tc := range []struct {
		path, body string
		size, want int
	}{
		{"/v1/run", `{"workload":"specint95","seed":1}`, MaxBodyBytes, http.StatusOK},
		{"/v1/run", `{"workload":"specint95","seed":1}`, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/estimate", `{"workload":"specint95"}`, MaxBodyBytes, http.StatusOK},
		{"/v1/estimate", `{"workload":"specint95"}`, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(pad(tc.body, tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s with a %d-byte body: status %d (%s), want %d",
				tc.path, tc.size, resp.StatusCode, b, tc.want)
		}
	}
}

// TestRunOverlayRejection pins the overlay contract: a syntactically valid
// but structurally broken config overlay is the *client's* error — every
// case must come back 400 with a structured {"error": ...} body, never
// reach the simulator, and never surface as a 500.
func TestRunOverlayRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, overlay string
	}{
		{"unknown field", `{"NoSuchKnob": 1}`},
		{"sets not a power of two", `{"L1D": {"SizeBytes": 98304, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`},
		{"size not divisible by ways*line", `{"L1D": {"SizeBytes": 100000, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`},
		{"zero hit latency", `{"L1D": {"SizeBytes": 131072, "Ways": 2, "LineBytes": 64, "HitCycles": 0}}`},
		{"L1/L2 line size mismatch", `{"L1D": {"SizeBytes": 131072, "Ways": 2, "LineBytes": 32, "HitCycles": 4}}`},
		{"negative L2 ways", `{"Mem": {"L2": {"SizeBytes": 2097152, "Ways": -4, "LineBytes": 64, "HitCycles": 21}}}`},
		{"zero issue width", `{"CPU": {"IssueWidth": 0}}`},
		{"BHT sets not a power of two", `{"BHT": {"Entries": 12288, "Ways": 2, "AccessCycles": 1}}`},
	} {
		body := fmt.Sprintf(`{"workload":"specint95","insts":1000,"config":%s}`, tc.overlay)
		resp, b := postRun(t, ts.URL, body)
		if resp.StatusCode >= 500 {
			t.Fatalf("%s: status %d — a bad overlay must never be a server error (%s)",
				tc.name, resp.StatusCode, b)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, b)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a structured {\"error\": ...} reply", tc.name, b)
		}
	}
	// The overlay path still works: a well-formed variant is accepted.
	resp, b := postRun(t, ts.URL,
		`{"workload":"specint95","insts":1000,"config":{"L1D": {"SizeBytes": 65536, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid overlay rejected: status %d (%s)", resp.StatusCode, b)
	}
}

// TestRunEndpointSampled drives a sampled run through the HTTP surface: the
// response must identify the estimate via the stats' sampling block, hash to
// a different cache key than the identical full run, and reject invalid
// schedules with 400.
func TestRunEndpointSampled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DefaultInsts: 20_000})
	full := `{"workload":"specint95","insts":60000,"seed":3}`
	sampled := `{"workload":"specint95","insts":60000,"seed":3,` +
		`"sampling":{"interval_insts":10000,"warmup_insts":1000,"measure_insts":2000,"offset_insts":0}}`

	respF, bF := postRun(t, ts.URL, full)
	respS, bS := postRun(t, ts.URL, sampled)
	if respF.StatusCode != http.StatusOK || respS.StatusCode != http.StatusOK {
		t.Fatalf("status: full %d (%s), sampled %d (%s)", respF.StatusCode, bF, respS.StatusCode, bS)
	}
	var rF, rS RunResponse
	if err := json.Unmarshal(bF, &rF); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bS, &rS); err != nil {
		t.Fatal(err)
	}
	if rF.Key == rS.Key {
		t.Fatal("sampled and full runs share a cache key")
	}
	if rF.Stats.Sampling != nil {
		t.Error("full run reports a sampling block")
	}
	if rS.Stats.Sampling == nil || rS.Stats.Sampling.Windows == 0 {
		t.Fatalf("sampled run's stats carry no sampling block: %s", bS)
	}
	if rS.Cache != "miss" {
		t.Errorf("sampled run served from the full run's entry: cache=%q", rS.Cache)
	}

	resp, b := postRun(t, ts.URL,
		`{"workload":"specint95","sampling":{"interval_insts":100,"warmup_insts":90,"measure_insts":50}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid schedule: status %d (%s), want 400", resp.StatusCode, b)
	}
}

// TestQueueFullReturns429 pins overload shedding: with one worker and one
// queue slot, a third distinct request is rejected with 429 before its
// simulation starts.
func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	var started atomic.Uint64
	release := make(chan struct{})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		started.Add(1)
		<-release
		return fakeReport(uint64(opt.Seed)), nil
	}

	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	for seed := 1; seed <= 2; seed++ {
		go func(seed int) {
			resp, b := postRun(t, ts.URL, fmt.Sprintf(`{"workload":"specint95","seed":%d}`, seed))
			results <- result{resp.StatusCode, string(b)}
		}(seed)
	}
	// Wait until one simulation is running and the second job holds the
	// queue slot (admitted, blocked on the worker gate).
	deadline := time.Now().Add(5 * time.Second)
	for !(started.Load() == 1 && len(s.queue) == 2) {
		if time.Now().After(deadline) {
			t.Fatalf("setup stalled: started=%d queued=%d", started.Load(), len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}

	resp, b := postRun(t, ts.URL, `{"workload":"specint95","seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d (%s), want 429", resp.StatusCode, b)
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("rejected request started a simulation: %d starts", got)
	}
	if got := s.rejectedShed.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request failed after release: %d (%s)", r.code, r.body)
		}
	}
	if got := started.Load(); got != 2 {
		t.Fatalf("started = %d, want 2", got)
	}
}

// TestBurstDedup pins singleflight through the HTTP surface: a concurrent
// burst of identical requests runs exactly one simulation; the rest join
// it and report "dedup".
func TestBurstDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const joiners = 7
	var started atomic.Uint64
	release := make(chan struct{})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		started.Add(1)
		<-release
		return fakeReport(9), nil
	}

	outcomes := make(chan string, joiners+1)
	for i := 0; i < joiners+1; i++ {
		go func() {
			resp, b := postRun(t, ts.URL, `{"workload":"specint95","seed":9}`)
			if resp.StatusCode != http.StatusOK {
				outcomes <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
				return
			}
			var rr RunResponse
			if err := json.Unmarshal(b, &rr); err != nil {
				outcomes <- err.Error()
				return
			}
			outcomes <- rr.Cache
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Stats().Shared != joiners {
		if time.Now().After(deadline) {
			t.Fatalf("joiners stalled: stats %+v", s.cache.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	counts := map[string]int{}
	for i := 0; i < joiners+1; i++ {
		counts[<-outcomes]++
	}
	if counts["miss"] != 1 || counts["dedup"] != joiners {
		t.Fatalf("outcomes = %v, want 1 miss + %d dedup", counts, joiners)
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("burst ran %d simulations, want 1", got)
	}
}

// TestMetricsScriptedSequence runs an exact request script and checks the
// /metrics exposition line by line.
func TestMetricsScriptedSequence(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueue: -1})
	release := make(chan struct{})
	blocked := make(chan struct{}, 8)
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		if opt.Seed == 2 {
			blocked <- struct{}{}
			<-release
		}
		return fakeReport(uint64(opt.Seed)), nil
	}

	// 1-2: run A cold (miss), run A again (memory hit).
	for i := 0; i < 2; i++ {
		if resp, b := postRun(t, ts.URL, `{"workload":"specint95","seed":1}`); resp.StatusCode != 200 {
			t.Fatalf("run A: %d %s", resp.StatusCode, b)
		}
	}
	// 3: invalid workload (400) still counts as a received request.
	postRun(t, ts.URL, `{"workload":"nope"}`)
	// 4: run B occupies the only worker...
	done := make(chan struct{})
	go func() {
		postRun(t, ts.URL, `{"workload":"specint95","seed":2}`)
		close(done)
	}()
	<-blocked
	// 5: ...so run C is shed (MaxQueue<0 means no waiting room).
	if resp, b := postRun(t, ts.URL, `{"workload":"specint95","seed":3}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run C: %d %s, want 429", resp.StatusCode, b)
	}
	// 6: unknown study (404) counts on the study endpoint.
	resp, err := http.Get(ts.URL + "/v1/studies/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("study: %d, want 404", resp.StatusCode)
	}
	close(release)
	<-done

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	metrics := string(mb)
	for _, want := range []string{
		`sparc64v_requests_total{endpoint="run"} 5`,
		`sparc64v_requests_total{endpoint="study"} 1`,
		`sparc64v_rejected_total 1`,
		`sparc64v_cache_hits_total{tier="memory"} 1`,
		`sparc64v_cache_hits_total{tier="disk"} 0`,
		`sparc64v_cache_misses_total 2`,
		`sparc64v_cache_shared_total 0`,
		`sparc64v_cache_corrupt_total 0`,
		`sparc64v_cache_entries 2`,
		`sparc64v_inflight_runs 0`,
		`sparc64v_queue_depth 0`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("metrics missing %q\n---\n%s", want, metrics)
		}
	}
}

// TestDrainFinishesInflight pins graceful shutdown: after Shutdown begins
// (the SIGINT path in cmd/simd), the in-flight run still completes with a
// full 200 response, while new connections are refused.
func TestDrainFinishesInflight(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cache: cache, Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		close(entered)
		<-release
		return fakeReport(1), nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { srv.Serve(ln); close(serveDone) }()
	url := "http://" + ln.Addr().String()

	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, b := postRun(t, url, `{"workload":"specint95","seed":1}`)
		inflight <- result{resp.StatusCode, string(b)}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown closes the listener first: wait until new connections are
	// refused, proving the drain has begun while the run is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(url + "/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a run was in flight", err)
	default:
	}

	close(release)
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight run during drain: %d (%s), want 200", r.code, r.body)
	}
	var rr RunResponse
	if err := json.Unmarshal([]byte(r.body), &rr); err != nil {
		t.Fatalf("in-flight response truncated by drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-serveDone
}

// TestStudyEndpoint runs a real (tiny) study through the harness route and
// checks the rendered artifacts and cache wiring.
func TestStudyEndpoint(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache, Workers: 2})

	get := func() StudyResponse {
		resp, err := http.Get(ts.URL + "/v1/studies/figure-7?insts=20000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("study: %d %s", resp.StatusCode, b)
		}
		var sr StudyResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	first := get()
	if len(first.Results) == 0 || first.Results[0].ID == "" || first.Results[0].Table == "" {
		t.Fatalf("study response empty: %+v", first)
	}
	misses := cache.Stats().Misses
	if misses == 0 {
		t.Fatal("study runs did not go through the cache")
	}
	second := get()
	if s := cache.Stats(); s.Misses != misses {
		t.Fatalf("warm study re-simulated: %d -> %d misses", misses, s.Misses)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatal("warm study response differs from cold")
	}
}
