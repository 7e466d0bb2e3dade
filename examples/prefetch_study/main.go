// Prefetch study: quantify the L2 hardware prefetcher (section 3.4) the
// way the paper's Figure 16/17 does — IPC impact and the demand-miss
// versus pollution accounting — plus a stall-attribution view showing
// where the cycles go with and without prefetching.
package main

import (
	"context"
	"fmt"
	"log"

	"sparc64v"
)

func main() {
	opt := sparc64v.RunOptions{Insts: 200_000}
	withCfg := sparc64v.BaseConfig()
	withoutCfg := sparc64v.BaseConfig().WithoutPrefetch()

	fmt.Println("Hardware prefetch study (L1-miss triggered, next-line + stride)")
	fmt.Println()
	for _, p := range []sparc64v.Profile{sparc64v.SPECfp2000(), sparc64v.TPCC()} {
		mWith, err := sparc64v.NewModel(withCfg)
		if err != nil {
			log.Fatal(err)
		}
		mWithout, err := sparc64v.NewModel(withoutCfg)
		if err != nil {
			log.Fatal(err)
		}
		rw, err := mWith.RunContext(context.Background(), p, opt)
		if err != nil {
			log.Fatal(err)
		}
		ro, err := mWithout.RunContext(context.Background(), p, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", p.Name)
		fmt.Printf("  IPC              with %.3f   without %.3f   (%+.1f%%)\n",
			rw.IPC(), ro.IPC(), 100*(rw.IPC()-ro.IPC())/ro.IPC())
		fmt.Printf("  L2 miss ratio    with %.3f   with-Demand %.3f   without %.3f\n",
			rw.L2TotalMissRate(), rw.L2DemandMissRate(), ro.L2DemandMissRate())

		// Where do the cycles go? The Figure 7 attribution, with and
		// without prefetching.
		bw, err := mWith.BreakdownContext(context.Background(), p, opt)
		if err != nil {
			log.Fatal(err)
		}
		bo, err := mWithout.BreakdownContext(context.Background(), p, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  stalls with      %s\n", bw.Breakdown.String())
		fmt.Printf("  stalls without   %s\n\n", bo.Breakdown.String())
	}
	fmt.Println("Prefetch pays off most on chain/stream access patterns (SPECfp);")
	fmt.Println("the 'with' vs 'with-Demand' gap is the unnecessary prefetch traffic.")
}
