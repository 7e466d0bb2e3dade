// Command verify runs the metamorphic cross-verification harness
// (internal/metamorph) against the built-in model and workloads: the
// repository's stand-in for the paper's logic-simulator cross-check, used
// as a merge gate in CI.
//
//	verify -quick            # CI gate: subset of workloads, MP checks skipped
//	verify -full             # whole catalog on every workload
//	verify -json report.json # machine-readable verdicts ("-" for stdout)
//	verify -inject l1index   # plant a model bug; the run must FAIL
//	verify -inject dropinval -checks tso-outcomes  # TSO harness self-test
//
// Exit status: 0 all checks passed, 1 at least one invariant violated,
// 2 the harness itself could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparc64v/internal/core"
	"sparc64v/internal/metamorph"
	"sparc64v/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "quick CI gate (default unless -full)")
	full := fs.Bool("full", false, "full catalog on every workload")
	seed := fs.Int64("seed", 42, "trace window seed")
	insts := fs.Int("insts", 0, "per-run trace length (0 = mode default)")
	workers := fs.Int("workers", 0, "concurrent checks (0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write the JSON verdict report to this file (\"-\" = stdout)")
	checks := fs.String("checks", "", "comma-separated check subset (default: whole mode catalog)")
	inject := fs.String("inject", "", "inject a model fault (l1index, dropinval) — the harness must catch it")
	profile := fs.String("profile", "", "write a JSON timing+counter profile of every check and run to this file")
	timeout := fs.Duration("timeout", 15*time.Minute, "abort the run after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *quick && *full {
		fmt.Fprintln(stderr, "verify: -quick and -full are mutually exclusive")
		return 2
	}
	if err := metamorph.InjectFault(*inject); err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return 2
	}

	opt := metamorph.Options{
		Full:    *full,
		Seed:    *seed,
		Insts:   *insts,
		Workers: *workers,
	}
	if *profile != "" {
		opt.Obs = obs.NewCollector()
	}
	if *checks != "" {
		for _, name := range strings.Split(*checks, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opt.Checks = append(opt.Checks, name)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := metamorph.Run(ctx, opt)
	if err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return 2
	}
	printReport(stdout, &rep)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &rep); err != nil {
			fmt.Fprintf(stderr, "verify: %v\n", err)
			return 2
		}
	}
	if *profile != "" {
		if err := opt.Obs.WriteProfileFile(*profile); err != nil {
			fmt.Fprintf(stderr, "verify: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "verify: wrote check profiles to %s\n", *profile)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "verify: aborted: %v\n", ctx.Err())
		return 2
	}
	switch {
	case rep.Errors > 0:
		return 2
	case rep.Fail > 0:
		return 1
	}
	return 0
}

// printReport renders the human-readable verdict table.
func printReport(w io.Writer, rep *metamorph.Report) {
	fmt.Fprintf(w, "model %s  mode=%s  seed=%d  insts=%d  workloads=%s",
		core.ModelVersion, rep.Mode, rep.Seed, rep.Insts,
		strings.Join(rep.Workloads, ","))
	if rep.Fault != "none" {
		fmt.Fprintf(w, "  INJECTED FAULT=%s", rep.Fault)
	}
	fmt.Fprintln(w)
	for _, v := range rep.Verdicts {
		fmt.Fprintf(w, "%-5s %-22s %-13s %6.1fs  %s\n",
			strings.ToUpper(v.Status), v.Check, v.Kind,
			float64(v.ElapsedMS)/1000, v.Detail)
	}
	fmt.Fprintf(w, "%d checks: %d pass, %d fail, %d errors in %.1fs\n",
		len(rep.Verdicts), rep.Pass, rep.Fail, rep.Errors,
		float64(rep.ElapsedMS)/1000)
}

// writeJSON writes the verdict report ("-" selects stdout).
func writeJSON(path string, rep *metamorph.Report) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
