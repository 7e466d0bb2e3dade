package metamorph

// The cluster-replay differential check: the distributed tier must be
// invisible in the numbers. A sweep pushed through a 1-node topology and
// a 3-node topology (rendezvous routing, peer caches, per-node
// singleflight) has to return byte-identical keys and reports — any
// divergence means routing, caching or the peer protocol changed a
// result, which is the one thing a sharded experiment service may never
// do. The cluster runs in process: real servers and a real gateway over
// httptest listeners.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"sparc64v/internal/gateway"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/server"
)

// clusterResult is the identity-relevant slice of a /v1/run response:
// the content key and the raw stats bytes. The cache-outcome field is
// topology-dependent by design (a 3-node run may be a peer hit) and is
// excluded from the comparison.
type clusterResult struct {
	Key   string          `json:"key"`
	Stats json.RawMessage `json:"stats"`
}

func checkDiffClusterReplay(ctx context.Context, env *Env) (string, error) {
	sweep := []string{
		fmt.Sprintf(`{"workload":"specint95","insts":%d,"seed":%d}`, env.Insts, env.Seed),
		fmt.Sprintf(`{"workload":"specint95","insts":%d,"seed":%d}`, env.Insts, env.Seed+1),
		fmt.Sprintf(`{"workload":"specfp95","insts":%d,"seed":%d}`, env.Insts, env.Seed),
		fmt.Sprintf(`{"workload":"specint2000","insts":%d,"seed":%d}`, env.Insts, env.Seed),
	}

	solo, err := runClusterSweep(ctx, 1, sweep)
	if err != nil {
		return "", fmt.Errorf("1-node topology: %w", err)
	}
	sharded, err := runClusterSweep(ctx, 3, sweep)
	if err != nil {
		return "", fmt.Errorf("3-node topology: %w", err)
	}
	for i, body := range sweep {
		if solo[i].Key != sharded[i].Key {
			return "", violationf(
				"%s: cache key %s (1-node) != %s (3-node): topologies disagree on request identity",
				body, solo[i].Key, sharded[i].Key)
		}
		if string(solo[i].Stats) != string(sharded[i].Stats) {
			return "", violationf(
				"%s: report differs between 1-node and 3-node topologies", body)
		}
	}
	return fmt.Sprintf("%d configs byte-identical across topologies", len(sweep)), nil
}

// runClusterSweep stands up an n-node cluster (workers with peer-meshed
// caches behind a rendezvous-hashing gateway) and pushes the sweep through
// it.
func runClusterSweep(ctx context.Context, n int, sweep []string) ([]clusterResult, error) {
	type node struct {
		srv *server.Server
		ts  *httptest.Server
	}
	nodes := make([]node, n)
	for i := range nodes {
		cache, err := runcache.New(runcache.Options{})
		if err != nil {
			return nil, err
		}
		srv, err := server.New(server.Config{
			Cache:    cache,
			Workers:  1,
			NodeID:   fmt.Sprintf("n%d", i),
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node{srv: srv, ts: httptest.NewServer(srv.Handler())}
	}
	defer func() {
		for _, nd := range nodes {
			nd.ts.Close()
		}
	}()
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
	workers := make([]gateway.Worker, n)
	for i, nd := range nodes {
		workers[i] = gateway.Worker{Name: fmt.Sprintf("n%d", i), URL: nd.ts.URL}
	}
	gw, err := gateway.New(gateway.Config{Workers: workers, Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}

	results := make([]clusterResult, len(sweep))
	for i, body := range sweep {
		req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/run", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		gw.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d: %s", body, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &results[i]); err != nil {
			return nil, fmt.Errorf("%s: decode response: %w", body, err)
		}
	}
	return results, nil
}
