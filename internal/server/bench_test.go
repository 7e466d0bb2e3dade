package server

import (
	"testing"

	"sparc64v/internal/config"
)

// BenchmarkResolveRun measures the fixed cost every /v1/run pays on simd
// and again on simgw before any cache lookup: overlaying the request on the
// base machine, validating it and deriving the run's content address.
func BenchmarkResolveRun(b *testing.B) {
	base := config.Base()
	req := RunRequest{Workload: "tpcc", Insts: 100_000, Seed: 7}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ResolveRun(base, 0, req); err != nil {
			b.Fatal(err)
		}
	}
}
