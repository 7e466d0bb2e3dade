package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparc64v/internal/gateway"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/server"
)

// inProcCluster is the service-mix cluster built from server.New and
// gateway.New under httptest, so the smoke test needs no binaries.
func inProcCluster() startCluster {
	return func(ctx context.Context, cacheDirs []string, insts int) (*cluster, error) {
		c := &cluster{pids: []int{os.Getpid()}}
		var srvs []*server.Server
		var https []*httptest.Server
		var pool []gateway.Worker
		for i, dir := range cacheDirs {
			cache, err := runcache.New(runcache.Options{Dir: dir})
			if err != nil {
				return nil, err
			}
			name := "n" + string(rune('0'+i))
			srv, err := server.New(server.Config{Cache: cache, Workers: 1, DefaultInsts: insts,
				NodeID: name, Registry: obs.NewRegistry()})
			if err != nil {
				return nil, err
			}
			hs := httptest.NewServer(srv.Handler())
			srvs, https = append(srvs, srv), append(https, hs)
			c.nodes = append(c.nodes, node{name: name, url: hs.URL})
			pool = append(pool, gateway.Worker{Name: name, URL: hs.URL})
		}
		for i, srv := range srvs {
			var peers []string
			for j, hs := range https {
				if j != i {
					peers = append(peers, hs.URL)
				}
			}
			srv.SetPeers(peers)
		}
		gw, err := gateway.New(gateway.Config{Workers: pool, DefaultInsts: insts, Registry: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
		ghs := httptest.NewServer(gw.Handler())
		c.gateway = ghs.URL
		c.stop = func() {
			ghs.Close()
			for _, hs := range https {
				hs.Close()
			}
		}
		return c, nil
	}
}

// TestShortSmoke runs every workload at smoke-test size, untraced and
// traced, and checks that each run is correct and emits exactly the
// declared metrics.
func TestShortSmoke(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			e := &env{workload: name, root: root, work: filepath.Join(root, "work", name), seed: 3,
				dur: 100 * time.Millisecond, traced: traced, short: true, sizes: shortSizes, out: &out,
				startCluster: inProcCluster()}
			rec, err := runOne(context.Background(), e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, rec.Correct, rec.Attempted, rec.Failed, out.String())
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(rec.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(rec.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted as %+v", name, traced, d.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; end-to-end metrics are never 0", name, d.Name, m.Value)
				}
				if !strings.Contains(out.String(), name+" "+d.Name+" ") {
					t.Errorf("%s traced=%v: %s not printed by name", name, traced, d.Name)
				}
			}
			if traced {
				b, err := os.ReadFile(filepath.Join(root, "bench", "out", name+".spans.json"))
				var doc struct{ Spans []span }
				if err == nil {
					err = json.Unmarshal(b, &doc)
				}
				if err != nil || len(doc.Spans) == 0 {
					t.Errorf("%s: span file: %v, %d spans", name, err, len(doc.Spans))
				}
			}
		}
	}
}
