package server

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestLoadBurstMetrics floods the server with concurrent distinct runs
// against one worker and a two-slot queue, then audits the whole metric
// surface: the request histogram's 200 sample count equals the accepted
// requests, the shed counters equal the 429s, and after a drain the
// exposition contains no negative or NaN value.
func TestLoadBurstMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cache: cache, Workers: 1, MaxQueue: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		<-release
		return fakeReport(uint64(opt.Seed)), nil
	}

	// A real http.Server (not httptest) so the drain below exercises the
	// same Shutdown path cmd/simd runs on SIGINT.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan struct{})
	go func() { hs.Serve(ln); close(serveDone) }()
	url := "http://" + ln.Addr().String()

	const burst = 10 // capacity is 1 running + 2 queued => 7 shed
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for seed := 1; seed <= burst; seed++ {
		wg.Add(1)
		go func(seed int) {
			// Raw http.Post: postRun's t.Fatal is only legal on the test
			// goroutine. A transport error reports as code 0 below.
			defer wg.Done()
			resp, err := http.Post(url+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"workload":"specint95","seed":%d}`, seed)))
			if err != nil {
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(seed)
	}
	// Wait until the burst has settled into its steady state: 3 admitted
	// (1 simulating + 2 queued), 7 shed.
	deadline := time.Now().Add(5 * time.Second)
	for !(len(s.queue) == 3 && s.rejectedShed.Value() == burst-3) {
		if time.Now().After(deadline) {
			t.Fatalf("burst never settled: queued=%d rejected=%d", len(s.queue), s.rejectedShed.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	counts := map[int]int{}
	for i := 0; i < burst; i++ {
		counts[<-codes]++
	}
	accepted, shed := counts[http.StatusOK], counts[http.StatusTooManyRequests]
	if accepted != 3 || shed != 7 || accepted+shed != burst {
		t.Fatalf("burst outcomes = %v, want 3x200 + 7x429", counts)
	}

	// The middleware observes after the handler returns, which can trail
	// the client seeing the response; poll the counters to settlement.
	okHist := reg.Histogram("sparc64v_http_request_seconds", "", nil,
		obs.L("endpoint", "run"), obs.L("code", "200"))
	shedCount := reg.Counter("sparc64v_http_responses_total", "",
		obs.L("endpoint", "run"), obs.L("code", "429"))
	deadline = time.Now().Add(5 * time.Second)
	for !(okHist.Count() == uint64(accepted) && shedCount.Value() == uint64(shed)) {
		if time.Now().After(deadline) {
			t.Fatalf("request metrics never settled: histogram 200s = %d (want %d), responses 429s = %d (want %d)",
				okHist.Count(), accepted, shedCount.Value(), shed)
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.rejectedShed.Value(); got != uint64(shed) {
		t.Errorf("shed counter = %d, want %d", got, shed)
	}

	// Drain exactly as cmd/simd does on SIGINT, then audit the exposition.
	s.DrainStarted()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-serveDone
	if got := s.drains.Value(); got != 1 {
		t.Errorf("drain counter = %d, want 1", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("sparc64v_rejected_total %d\n", shed); !strings.Contains(b.String(), want) {
		t.Errorf("legacy rejected counter: exposition lacks %q", want)
	}
	assertSaneExposition(t, b.String())
}

// assertSaneExposition fails on any sample line whose value is negative,
// NaN, or infinite — the "never confuse a scraper" contract.
func assertSaneExposition(t *testing.T, exposition string) {
	t.Helper()
	samples := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("insane exposition value in %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Error("exposition had no samples")
	}
}

// TestMetricsGoldenExposition scripts the server clock, the simulator, and
// an exact request sequence, then compares the full /metrics page against
// a checked-in golden file. A metric rename, a format change, or series
// ordering drift fails here instead of silently breaking scrapers.
// Regenerate deliberately with:
//
//	go test ./internal/server -run Golden -update
func TestMetricsGoldenExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		return fakeReport(uint64(opt.Seed)), nil
	}
	// Scripted clock: every read advances 1ms, so each request's histogram
	// observation is exactly 1ms and the exposition is reproducible.
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	tick := 0
	s.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	}

	for _, req := range []struct{ body string }{
		{`{"workload":"specint95","seed":1}`}, // miss
		{`{"workload":"specint95","seed":1}`}, // memory hit
		{`{"workload":"nope"}`},               // 400
	} {
		postRun(t, ts.URL, req.body)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertSaneExposition(t, string(got))
}
