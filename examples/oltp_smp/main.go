// OLTP SMP study: the paper's enterprise-server scenario. Runs the TPC-C
// workload with shared data on 1..16 processors and reports throughput
// scaling and the coherence traffic (move-out transfers, invalidations)
// that the two-level cache hierarchy was designed around.
package main

import (
	"context"
	"fmt"
	"log"

	"sparc64v"
)

func main() {
	profile := sparc64v.TPCC16P()
	fmt.Println("TPC-C scaling on the SPARC64 V SMP model")
	fmt.Println("CPUs  per-CPU IPC  aggregate  C2C xfers  invalidations  bus wait")
	var base float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		cfg := sparc64v.BaseConfig().WithCPUs(n)
		model, err := sparc64v.NewModel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		report, err := model.RunContext(context.Background(), profile, sparc64v.RunOptions{Insts: 120_000})
		if err != nil {
			log.Fatal(err)
		}
		agg := report.IPC() * float64(n)
		if n == 1 {
			base = agg
		}
		fmt.Printf("%4d  %11.3f  %9.2fx  %9d  %13d  %8d\n",
			n, report.IPC(), agg/base,
			report.Coherence.CacheTransfers, report.Coherence.Invalidations,
			report.BusWaitCycles)
	}
	fmt.Println("\nShared-data stores cause move-out (cache-to-cache) transfers between")
	fmt.Println("the per-chip L2s; scaling efficiency is set by memory and coherence")
	fmt.Println("behavior, not by the cores — the system-balance point of the paper.")
}
