package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// resolveTestKey computes the cache key the server would use for a
// request body, through the same ResolveRun path handleRun takes.
func resolveTestKey(t *testing.T, req RunRequest) runcache.Key {
	t.Helper()
	rr, err := ResolveRun(config.Base(), 20_000, req)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Key
}

// putEntry stores rep under key in cache, as a completed run.
func putEntry(t *testing.T, cache *runcache.Cache, key runcache.Key, rep system.Report) {
	t.Helper()
	if _, _, err := cache.GetOrRun(context.Background(), key, func(context.Context) (system.Report, error) {
		return rep, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEntryEndpoint covers the serving side of the peer protocol:
// malformed ids are 400, unknown ids are 404, and a cached entry comes
// back as a verifiable envelope.
func TestCacheEntryEndpoint(t *testing.T) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache, Workers: 1, DefaultInsts: 20_000, Registry: obs.NewRegistry()})

	key := resolveTestKey(t, RunRequest{Workload: "specint95", Seed: 9})
	rep := fakeReport(9)
	putEntry(t, cache, key, rep)

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/cache/" + key.ID(), http.StatusOK},
		{"/v1/cache/" + strings.Repeat("0", 64), http.StatusNotFound},
		{"/v1/cache/nothex", http.StatusBadRequest},
		{"/v1/cache/" + strings.ToUpper(key.ID()), http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK {
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got, err := runcache.DecodeEntry(key, b)
			if err != nil {
				t.Fatalf("served envelope does not verify: %v", err)
			}
			if got.Cycles != rep.Cycles {
				t.Fatalf("served report cycles = %d, want %d", got.Cycles, rep.Cycles)
			}
		} else {
			resp.Body.Close()
		}
	}
}

// TestPeerSharedCache is the shared-cache tier end to end over real HTTP:
// node A has the entry, node B misses locally, fetches it from A, serves
// it as a peer hit, and never simulates.
func TestPeerSharedCache(t *testing.T) {
	cacheA, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tsA := newTestServer(t, Config{Cache: cacheA, Workers: 1, DefaultInsts: 20_000, NodeID: "a", Registry: obs.NewRegistry()})

	body := `{"workload":"specint95","seed":11}`
	key := resolveTestKey(t, RunRequest{Workload: "specint95", Seed: 11})
	rep := fakeReport(11)
	putEntry(t, cacheA, key, rep)

	cacheB, err := runcache.New(runcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sB, tsB := newTestServer(t, Config{Cache: cacheB, Workers: 1, DefaultInsts: 20_000, NodeID: "b", Registry: obs.NewRegistry()})
	sB.SetPeers([]string{tsA.URL})
	sB.simulate = func(context.Context, *core.Model, workload.Profile, core.RunOptions) (system.Report, error) {
		t.Error("node B simulated despite a peer holding the entry")
		return system.Report{}, nil
	}

	resp, b := postRun(t, tsB.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run via peer: %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Node"); got != "b" {
		t.Fatalf("X-Node = %q, want b", got)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit-peer" {
		t.Fatalf("X-Cache = %q, want hit-peer", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Cache != "hit-peer" || rr.Key != key.ID() {
		t.Fatalf("response cache=%q key=%q, want hit-peer/%s", rr.Cache, rr.Key, key.ID())
	}
	if s := cacheB.Stats(); s.PeerHits != 1 || s.Misses != 0 {
		t.Fatalf("node B stats = %+v, want one peer hit", s)
	}

	// The fetched entry populated B's local tiers: a repeat is a memory
	// hit with no second network round trip.
	resp2, _ := postRun(t, tsB.URL, body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
}

// TestPeerFetcherSkipsDeadPeers: a down peer costs one failed attempt,
// then the next peer answers.
func TestPeerFetcherSkipsDeadPeers(t *testing.T) {
	key := resolveTestKey(t, RunRequest{Workload: "specint95", Seed: 13})
	rep := fakeReport(13)
	envelope, err := runcache.EncodeEntry(key, rep)
	if err != nil {
		t.Fatal(err)
	}
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/"+key.ID() {
			http.NotFound(w, r)
			return
		}
		w.Write(envelope)
	}))
	defer good.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	f := NewPeerFetcher([]string{deadURL, good.URL}, nil, obs.NewRegistry())
	b, ok := f.Fetch(context.Background(), key)
	if !ok {
		t.Fatal("fetch failed despite a live peer")
	}
	if got, err := runcache.DecodeEntry(key, b); err != nil || got.Cycles != rep.Cycles {
		t.Fatalf("fetched envelope: %v", err)
	}

	// All peers dead: a miss, not an error.
	f.SetPeers([]string{deadURL})
	if _, ok := f.Fetch(context.Background(), key); ok {
		t.Fatal("fetch succeeded with no live peers")
	}
}

// TestDrainSheds: after DrainStarted, /healthz flips to 503 so the
// gateway stops routing here, and new runs are shed with 503 "draining".
func TestDrainSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DefaultInsts: 20_000, NodeID: "n0", Registry: obs.NewRegistry()})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", resp.StatusCode)
	}

	s.DrainStarted()
	if !s.draining.Load() {
		t.Fatal("draining false after DrainStarted")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", resp.StatusCode)
	}
	runResp, body := postRun(t, ts.URL, `{"workload":"specint95"}`)
	if runResp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining run = %d %s, want 503 draining", runResp.StatusCode, body)
	}
	// Cache serving stays up during a drain so peers can still pull
	// entries from the departing node.
	resp, err = http.Get(ts.URL + "/v1/cache/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("draining cache probe = %d, want 404 (still served)", resp.StatusCode)
	}
}
