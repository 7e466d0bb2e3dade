package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparc64v/internal/analytic"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

func postEstimate(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", strings.NewReader(body))
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

// TestEstimateEndpointEndToEnd drives the fast tier through the HTTP
// surface: a calibrated workload gets a CPI with confidence band and
// provenance, a config overlay moves the estimate the physical way, and
// the response carries the model-version header.
func TestEstimateEndpointEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, b := postEstimate(t, ts.URL, `{"workload":"specint95"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Model-Version"); got != core.ModelVersion {
		t.Fatalf("X-Model-Version = %q, want %q", got, core.ModelVersion)
	}
	var est analytic.Estimate
	if err := json.Unmarshal(b, &est); err != nil {
		t.Fatal(err)
	}
	if est.CPI <= 0 || est.IPC <= 0 {
		t.Fatalf("empty estimate: %+v", est)
	}
	if !(est.CPILow <= est.CPI && est.CPI <= est.CPIHigh) {
		t.Fatalf("band does not bracket the estimate: %+v", est)
	}
	if est.ModelVersion != core.ModelVersion || est.CalibrationInsts <= 0 {
		t.Fatalf("missing provenance: %+v", est)
	}

	// A smaller L1 must not price lower than the base machine.
	resp2, b2 := postEstimate(t, ts.URL,
		`{"workload":"specint95","config":{"L1D":{"SizeBytes":32768,"Ways":1,"LineBytes":64,"HitCycles":4,"MSHRs":8,"Banks":8,"BankBytes":4}}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("overlay estimate: %d %s", resp2.StatusCode, b2)
	}
	var small analytic.Estimate
	if err := json.Unmarshal(b2, &small); err != nil {
		t.Fatal(err)
	}
	if small.CPI < est.CPI {
		t.Fatalf("smaller L1D estimated faster: %.4f < %.4f", small.CPI, est.CPI)
	}
}

// TestEstimateValidation covers the 400 paths: same strictness as /v1/run.
func TestEstimateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"quake3"}`},
		{"unknown request field", `{"workload":"specint95","insts":1000}`},
		{"unknown config field", `{"workload":"specint95","config":{"NoSuchKnob":1}}`},
		{"invalid overlay geometry", `{"workload":"specint95","config":{"L1D":{"SizeBytes":98304,"Ways":2,"LineBytes":64,"HitCycles":4}}}`},
		{"garbage body", `{`},
	} {
		resp, b := postEstimate(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, b)
		}
	}
}

// TestRunAndEstimateRejectAlike pins that both tiers resolve a request to
// its machine with one code path: a body whose workload or overlay is bad
// gets the same 400 and the same error text from /v1/run and /v1/estimate.
func TestRunAndEstimateRejectAlike(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"quake3"}`},
		{"unknown workload with overlay", `{"workload":"quake3","config":{"CPUs":4}}`},
		{"unknown overlay field", `{"workload":"specint95","config":{"NoSuchKnob":1}}`},
		{"invalid overlay geometry", `{"workload":"specint95","config":{"L1D":{"SizeBytes":98304,"Ways":2,"LineBytes":64,"HitCycles":4}}}`},
		{"overlay breaks validation", `{"workload":"tpcc16p","config":{"CPUs":-1}}`},
		// Regression: a negative cpus resolved to the base CPU count (1, or
		// 16 for an MP workload) instead of being rejected.
		{"negative cpus", `{"workload":"specint95","cpus":-3}`},
		{"negative cpus on an MP workload", `{"workload":"tpcc16p","cpus":-3}`},
	} {
		runResp, runBody := postRun(t, ts.URL, tc.body)
		estResp, estBody := postEstimate(t, ts.URL, tc.body)
		if runResp.StatusCode != http.StatusBadRequest || estResp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /v1/run %d, /v1/estimate %d, want 400 from both",
				tc.name, runResp.StatusCode, estResp.StatusCode)
		}
		if string(runBody) != string(estBody) {
			t.Errorf("%s: /v1/run said %s but /v1/estimate said %s", tc.name, runBody, estBody)
		}
	}
}

// TestEstimateFallback pins the uncalibrated paths: multiprocessor
// configurations and workloads outside the calibration set answer 404 with
// a /v1/run fallback hint and count as fallbacks, never as errors.
func TestEstimateFallback(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
	for _, tc := range []struct {
		name, body string
	}{
		{"explicit MP", `{"workload":"specint95","cpus":4}`},
		{"MP workload defaults to 16P", `{"workload":"tpcc16p"}`},
	} {
		resp, b := postEstimate(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d (%s), want 404", tc.name, resp.StatusCode, b)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "/v1/run") {
			t.Errorf("%s: body %q lacks the /v1/run fallback hint", tc.name, b)
		}
	}
	fallbacks := reg.Counter("sparc64v_server_estimates_total", "",
		obs.L("outcome", "fallback_uncalibrated")).Value()
	if fallbacks != 2 {
		t.Errorf("fallback_uncalibrated = %d, want 2", fallbacks)
	}
	served := reg.Counter("sparc64v_server_estimates_total", "",
		obs.L("outcome", "served")).Value()
	if served != 0 {
		t.Errorf("served = %d, want 0", served)
	}
}

// TestEstimateLatencyP99 pins the fast tier's latency contract through the
// instrumentation that reports it in production: after a burst of estimate
// requests, the obs request histogram's p99 for the endpoint must sit under
// one millisecond. The requests go through the full middleware + handler
// path (what a client pays minus the TCP hop).
func TestEstimateLatencyP99(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, Registry: reg})
	h := s.Handler()
	const n = 500
	for i := 0; i < n; i++ {
		req := httptest.NewRequest("POST", "/v1/estimate",
			strings.NewReader(`{"workload":"specint95"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
	}
	hist := reg.Histogram("sparc64v_http_request_seconds", "", nil,
		obs.L("endpoint", "estimate"), obs.L("code", "200"))
	if got := hist.Snapshot().Count; got != n {
		t.Fatalf("histogram observed %d requests, want %d", got, n)
	}
	if p99 := hist.Quantile(0.99); p99 >= 0.001 {
		t.Errorf("estimate p99 latency %.6fs >= 1ms", p99)
	}
}

// TestEstimateBypassesAdmission pins the tiering property that makes the
// fast tier useful: with the only worker slot held by a running simulation
// and no queue room left, /v1/run sheds 429 but /v1/estimate still answers
// 200 immediately.
func TestEstimateBypassesAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueue: -1})
	var started atomic.Uint64
	release := make(chan struct{})
	s.simulate = func(ctx context.Context, m *core.Model, p workload.Profile, opt core.RunOptions) (system.Report, error) {
		started.Add(1)
		<-release
		return fakeReport(uint64(opt.Seed)), nil
	}
	defer close(release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts.URL, `{"workload":"specint95","seed":1}`)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("setup stalled: simulation never started")
		}
		time.Sleep(time.Millisecond)
	}

	// The detailed tier is saturated…
	resp, b := postRun(t, ts.URL, `{"workload":"specint95","seed":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated run: status %d (%s), want 429", resp.StatusCode, b)
	}
	// …but the analytic tier still answers.
	for i := 0; i < 3; i++ {
		resp, b := postEstimate(t, ts.URL, fmt.Sprintf(`{"workload":"specint95","config":{"CPU":{"IssueWidth":%d}}}`, 2+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate under saturation: status %d (%s)", resp.StatusCode, b)
		}
	}
	release <- struct{}{}
	<-done
}
