// Command sweep regenerates every table and figure of the paper's
// evaluation at full trace length and renders them as text or markdown
// (the source of EXPERIMENTS.md).
//
// The studies are independent simulations, so the sweep fans out onto the
// sched worker pool by default (-workers 1 restores the serial sweep;
// output is byte-identical either way), and runs that share a workload
// trace batch automatically, decoding it once. The stderr summary
// reports per-study wall time and the sweep's effective simulated
// instructions/second — the modern counterpart of the paper's "7.8K
// instructions per second on a 1-GHz Pentium III" model-speed quote.
//
// Run lifecycle: -timeout bounds the whole sweep, and SIGINT (Ctrl-C) or SIGTERM
// cancels it cooperatively. Either way every study that finished before
// the cancellation still renders; studies that didn't are marked
// "(incomplete)" in their presentation slot, and the process exits
// non-zero.
//
// With -cache-dir the sweep reads and writes the content-addressed run
// cache (internal/runcache): an aborted sweep's completed runs are not
// lost, and a warm cache regenerates EXPERIMENTS.md byte-identically
// without simulating (Section 2.1's wall-clock rows are measured, not
// simulated, so they always rerun but never change the rendered table).
//
// Example:
//
//	sweep -insts 1000000 -markdown -cache-dir .simcache > EXPERIMENTS.md
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/expt"
	"sparc64v/internal/obs"
	"sparc64v/internal/runcache"
	"sparc64v/internal/sched"
)

func main() {
	var (
		insts    = flag.Int("insts", 1_000_000, "instructions per CPU per run")
		seed     = flag.Int64("seed", 42, "workload seed")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "abort the sweep after this long (0 = no limit)")
		cacheDir = flag.String("cache-dir", "", "content-addressed run cache directory (empty = no cache)")
		profile  = flag.String("profile", "", "write a JSON timing+counter profile of every run to this file")
		sample   = flag.String("sample", "", "sampled simulation for every study: off|auto|interval=N,warmup=N,measure=N[,offset=N]")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := core.RunOptions{Insts: *insts, Seed: *seed, Workers: *workers}
	var err error
	if opt.Sample, err = config.ParseSampling(*sample, *insts); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	if *profile != "" {
		opt.Obs = obs.NewCollector()
	}
	var cache *runcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = runcache.New(runcache.Options{Dir: *cacheDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		opt.Cache = cache
	}
	// The simulation meter is process-wide; the sweep reports its delta.
	simInstrs := obs.Default().Counter("sparc64v_simulated_instructions_total", "")
	simRuns := obs.Default().Counter("sparc64v_simulated_runs_total", "")
	instrs0, runs0 := simInstrs.Value(), simRuns.Value()
	t0 := time.Now()
	results, err := expt.AllContext(ctx, opt)
	wall := time.Since(t0)
	instrs, runs := simInstrs.Value()-instrs0, simRuns.Value()-runs0
	// Completed studies render even when the sweep was cut short; the
	// missing ones carry "(incomplete)" markers from AllContext.
	if *markdown {
		// The preamble carries no wall time or worker count: given the
		// same -insts and -seed the whole file is byte-identical across
		// hosts, worker counts, and cache state (timing goes to stderr).
		fmt.Printf("# EXPERIMENTS — paper vs. reproduced\n\n")
		fmt.Printf("Regenerated with `go run ./cmd/sweep -insts %d -markdown`.\n", *insts)
		fmt.Printf("Add `-cache-dir <dir>` to reuse prior runs: only changed studies\n")
		fmt.Printf("re-simulate, and a fully warm cache regenerates this file without\n")
		fmt.Printf("running the simulator at all.\n\n")
		fmt.Println("Absolute numbers are not comparable to the paper (the workloads are")
		fmt.Println("synthetic substitutes; see DESIGN.md). The reproduction target is the")
		fmt.Println("*shape* of each comparison: who wins, roughly by how much, and where")
		fmt.Println("the trade-offs fall. Each section lists the paper's claim and the")
		fmt.Println("reproduced data.")
		fmt.Println()
		for _, r := range results {
			fmt.Printf("## %s — %s\n\n", r.ID, r.Title)
			for _, n := range r.Notes {
				fmt.Printf("*%s*\n\n", n)
			}
			fmt.Println(r.Table.Markdown())
			if r.Chart != "" {
				fmt.Printf("```\n%s```\n\n", r.Chart)
			}
		}
	} else {
		for _, r := range results {
			fmt.Println(r.String())
		}
	}
	summarize(results, wall, sched.Workers(opt.Workers), cache, instrs, runs)
	if *profile != "" {
		if werr := opt.Obs.WriteProfileFile(*profile); werr != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote run profiles to %s\n", *profile)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "sweep: timed out after %s (completed studies rendered above)\n", *timeout)
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "sweep: interrupted (completed studies rendered above)")
		default:
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		}
		os.Exit(1)
	}
}

// summarize prints the per-study wall times and the sweep's effective
// simulated-instruction throughput to stderr; instrs and runs are what the
// sweep itself simulated.
func summarize(results []expt.Result, wall time.Duration, workers int, cache *runcache.Cache, instrs, runs uint64) {
	fmt.Fprintf(os.Stderr, "sweep: study wall times (%d workers, studies overlap):\n", workers)
	for _, r := range results {
		if r.Elapsed <= 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-12s %-40s %10s\n", r.ID, r.Title,
			r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr,
		"sweep: done in %s: %d runs, %.1fM instrs simulated, %.0f effective sim-instrs/s\n",
		wall.Round(time.Millisecond), runs, float64(instrs)/1e6,
		float64(instrs)/wall.Seconds())
	if cache != nil {
		s := cache.Stats()
		fmt.Fprintf(os.Stderr,
			"sweep: cache: %d hits (%d memory, %d disk), %d shared, %d misses, %.1fM instrs served from cache\n",
			s.Hits(), s.MemoryHits, s.DiskHits, s.Shared, s.Misses,
			float64(s.HitInstructions)/1e6)
	}
}
