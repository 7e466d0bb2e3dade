// Command simgw fronts a pool of simd workers: one address for the whole
// cluster, with placement by rendezvous hashing of each run's content
// address so identical requests land on the same worker and the pool
// deduplicates simulations without coordination.
//
// Endpoints:
//
//	POST /v1/run       proxied to the run's home worker, with failover
//	POST /v1/estimate  proxied by body hash (load spreading)
//	GET  /healthz      200 while at least one worker is available
//	GET  /metrics      gateway routing/health/cache-outcome metrics
//
// Example (three local workers):
//
//	simd -addr :8971 -node-id n0 -peers http://127.0.0.1:8972,http://127.0.0.1:8973 &
//	simd -addr :8972 -node-id n1 -peers http://127.0.0.1:8971,http://127.0.0.1:8973 &
//	simd -addr :8973 -node-id n2 -peers http://127.0.0.1:8971,http://127.0.0.1:8972 &
//	simgw -addr :8970 -workers n0=http://127.0.0.1:8971,n1=http://127.0.0.1:8972,n2=http://127.0.0.1:8973
//
// A worker that dies or drains mid-sweep costs a failover, not an error:
// requests retry on the next replica in the key's preference order, and
// the shared-cache tier means the replacement usually finds the entry
// its peers already computed. Worker 429s (queue full) are preserved end
// to end so clients still see backpressure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sparc64v/internal/gateway"
)

func main() {
	var (
		addr    = flag.String("addr", ":8970", "listen address")
		workers = flag.String("workers", "", "comma-separated worker pool: name=url or bare URLs (required)")
		insts   = flag.Int("insts", 1_000_000, "default instructions per CPU (must match the workers' -insts)")
		health  = flag.Duration("health-every", 2*time.Second, "active health-probe interval")
	)
	flag.Parse()

	pool, err := gateway.ParseWorkers(*workers)
	if err != nil {
		fatal("%v (use -workers name=url,name=url)", err)
	}
	gw, err := gateway.New(gateway.Config{
		Workers:      pool,
		DefaultInsts: *insts,
		HealthEvery:  *health,
	})
	if err != nil {
		fatal("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go gw.Run(ctx)

	hs := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simgw: listening on %s, %d workers\n", *addr, len(pool))

	select {
	case err := <-errc:
		fatal("%v", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fatal("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("%v", err)
	}
	fmt.Fprintln(os.Stderr, "simgw: bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simgw: "+format+"\n", args...)
	os.Exit(1)
}
