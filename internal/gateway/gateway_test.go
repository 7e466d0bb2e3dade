package gateway

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sparc64v/internal/obs"
	"sparc64v/internal/server"
)

// TestBodySizeLimit pins the gateway's POST body bound, which is the
// worker's: a valid request padded to exactly server.MaxBodyBytes is
// proxied, one byte more is 413 at the edge, and neither is ever a 5xx.
func TestBodySizeLimit(t *testing.T) {
	transport := &scriptedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"n0": func(r *http.Request) (*http.Response, error) {
			return scriptedResponse(200, map[string]string{"X-Node": "n0", "X-Cache": "miss"},
				`{"key":"k","cache":"miss","stats":{}}`), nil
		},
	}}
	gw, err := New(Config{
		Workers:      []Worker{{Name: "n0", URL: "http://n0:1"}},
		DefaultInsts: 20_000,
		Client:       &http.Client{Transport: transport},
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pad := func(body string, size int) string {
		return strings.Repeat(" ", size-len(body)) + body
	}
	for _, tc := range []struct {
		path, body string
		size, want int
	}{
		{"/v1/run", `{"workload":"specint95","seed":1}`, server.MaxBodyBytes, http.StatusOK},
		{"/v1/run", `{"workload":"specint95","seed":1}`, server.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/estimate", `{"workload":"specint95"}`, server.MaxBodyBytes, http.StatusOK},
		{"/v1/estimate", `{"workload":"specint95"}`, server.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
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

// TestProbeHealthReusesConnection pins keep-alive reuse across health
// probes: a probe must finish with the response body before releasing
// its context, or every probe tears down its connection and dials anew.
func TestProbeHealthReusesConnection(t *testing.T) {
	var dials atomic.Int64
	worker := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	worker.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	worker.Start()
	defer worker.Close()
	gw, err := New(Config{
		Workers:  []Worker{{Name: "w0", URL: worker.URL}},
		Client:   &http.Client{Transport: &http.Transport{}},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		gw.ProbeHealth(context.Background())
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("5 health probes opened %d connections, want 1", n)
	}
	if ws := gw.workers["w0"]; !ws.healthy.Load() || ws.draining.Load() {
		t.Fatalf("probed worker: healthy %v, draining %v, want healthy and not draining",
			ws.healthy.Load(), ws.draining.Load())
	}
}

// TestCandidatesHealthOrder is a table test of the gateway's one routing
// rule. The workers' URLs are never dialled: each case sets the gateway's
// view of the pool (health, drain) and checks the order candidates
// returns, in terms of the key's ring sequence.
func TestCandidatesHealthOrder(t *testing.T) {
	gw, err := New(Config{
		Workers: []Worker{
			{Name: "n0", URL: "http://n0.invalid"},
			{Name: "n1", URL: "http://n1.invalid"},
			{Name: "n2", URL: "http://n2.invalid"},
		},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const key = "key-01"
	seq := gw.ring.Sequence(key)
	a, b, c := seq[0], seq[1], seq[2]
	type view struct{ unhealthy, drained bool }
	for _, tc := range []struct {
		name string
		pool map[string]view // by ring position; absent means healthy
		want []string
	}{
		{"draining primary trails", map[string]view{a: {drained: true}}, []string{b, c, a}},
		{"draining and unhealthy trail in ring order", map[string]view{a: {drained: true}, b: {unhealthy: true}}, []string{c, a, b}},
		{"unavailable nodes trail the one available node", map[string]view{a: {unhealthy: true}, c: {drained: true}}, []string{b, a, c}},
		{"every node unavailable", map[string]view{a: {unhealthy: true}, b: {drained: true}, c: {unhealthy: true, drained: true}}, []string{a, b, c}},
	} {
		for _, name := range seq {
			v, ws := tc.pool[name], gw.workers[name]
			ws.healthy.Store(!v.unhealthy)
			ws.draining.Store(v.drained)
		}
		if got := gw.candidates(key); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: candidates = %v, want %v (ring sequence %v)", tc.name, got, tc.want, seq)
		}
	}
}

// TestTrailingBodyBytes pins that the gateway rejects what its workers
// reject: bytes after the JSON object, and a negative cpus (which once
// resolved to the default CPU count), are a 400, answered at the edge for
// runs (nothing is routed or simulated) and by the worker for estimates,
// which the gateway forwards verbatim.
func TestTrailingBodyBytes(t *testing.T) {
	nodes, _, gwts := startCluster(t, 1)
	for _, tc := range []struct{ path, body string }{
		{"/v1/run", `{"workload":"tpcc"}junk`},
		{"/v1/run", `{"workload":"tpcc"}{}`},
		{"/v1/estimate", `{"workload":"tpcc"}junk`},
		{"/v1/run", `{"workload":"specint95","cpus":-3}`},
		{"/v1/run", `{"workload":"tpcc16p","cpus":-3}`},
		{"/v1/estimate", `{"workload":"tpcc16p","cpus":-3}`},
	} {
		resp, err := http.Post(gwts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d (%s), want 400", tc.path, tc.body, resp.StatusCode, b)
		}
	}
	if n := totalSimulations(nodes); n != 0 {
		t.Errorf("%d simulations ran for rejected bodies", n)
	}
}
