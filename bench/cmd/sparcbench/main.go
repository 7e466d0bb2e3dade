// Command sparcbench is the repository's benchmark: four workloads that
// time the simulator and the simd/simgw service from the outside, check
// every output, and print each metric by name with its unit.
//
// Run it from the repository root through bench/run.sh, which builds it
// and the service binaries first:
//
//	bash bench/run.sh                                  # all four workloads, one child process each
//	bash bench/run.sh -workload up-full -seed 3        # one workload, end-to-end metrics
//	bash bench/run.sh -workload service-mix -trace 1   # traced run: per-layer metrics and spans
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//	bash bench/run.sh -regen                           # rewrite bench/testdata (untimed)
//
// A single-workload run prints "workload metric value unit" lines and, as
// its last line, one JSON object {"correct","attempted","failed","metrics"}.
// It also writes bench/out/result.json and, when traced,
// bench/out/<workload>.spans.json. It exits 1 when any output is wrong.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparc64v/internal/core"
	"sparc64v/internal/system"
	"sparc64v/internal/workload"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"up-full", "smp-tpcc16", "sweep-sampled", "service-mix"}

// env is one workload run's settings.
type env struct {
	workload     string
	root         string // checkout root
	work         string // directory for the run's files, removed at the end
	seed         int64
	dur          time.Duration
	traced       bool
	short        bool
	regen        bool // run each op once to record golden outputs
	sizes        sizes
	out          io.Writer // human-readable lines
	rec          *recorder // nil unless traced
	golden       goldenDoc
	refs         referenceDoc
	startCluster startCluster
}

// outcome is what a workload run produced.
type outcome struct {
	values    map[string]float64
	notOnPath []string
	attempted int
	failed    int
	digest    string             // golden digest of the run's outputs
	refCPI    map[string]float64 // sweep-sampled's reference CPIs
}

func (oc *outcome) fail(e *env, what string, err error) {
	oc.failed++
	fmt.Fprintf(e.out, "# %s FAIL %s: %v\n", e.workload, what, err)
}

// checkGolden compares the run's digest with the recorded one, when the
// seed has one under this model version.
func (oc *outcome) checkGolden(e *env) {
	if e.short {
		return
	}
	want, ok := e.golden.Digests[core.ModelVersion][e.workload][seedKey(e.seed)]
	if !ok {
		fmt.Fprintf(e.out, "# %s: no golden digest for seed %d; differential checks only\n", e.workload, e.seed)
		return
	}
	oc.attempted++
	if want != oc.digest {
		oc.fail(e, "golden digest", fmt.Errorf("got %.16s, want %.16s", oc.digest, want))
	}
}

// referenceCheck compares sweep-sampled's full-detail reference CPIs with
// the recorded ones, when the seed has them.
func (e *env) referenceCheck(profiles []workload.Profile, refs []system.Report) check {
	want, ok := e.refs.CPI[core.ModelVersion][seedKey(e.seed)]
	if e.short || !ok {
		return check{"reference CPIs", nil}
	}
	for i, p := range profiles {
		if got := refs[i].Summary().CPI; got != want[p.Name] {
			return check{"reference CPIs", fmt.Errorf("%s: CPI %v, recorded %v", p.Name, got, want[p.Name])}
		}
	}
	return check{"reference CPIs", nil}
}

func runWorkload(ctx context.Context, e *env) (*outcome, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	switch e.workload {
	case "up-full":
		return runSim(ctx, e, upFullPlan(e))
	case "smp-tpcc16":
		return runSim(ctx, e, smpPlan(e))
	case "sweep-sampled":
		return runSim(ctx, e, sweepPlan(e))
	case "service-mix":
		return runService(ctx, e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", e.workload, strings.Join(workloadNames, ", "))
}

// runOne runs one workload and returns its record; spans, when traced,
// go to bench/out/<workload>.spans.json.
func runOne(ctx context.Context, e *env) (record, error) {
	rec := record{Workload: e.workload, Seed: e.seed}
	decls := endToEnd
	if e.traced {
		rec.Trace, decls = 1, perLayer
		e.rec = newRecorder()
	}
	oc, err := runWorkload(ctx, e)
	if err != nil {
		return rec, err
	}
	rec.Metrics, err = emit(decls, oc.values, oc.notOnPath)
	if err != nil {
		return rec, err
	}
	rec.Correct, rec.Attempted, rec.Failed = oc.failed == 0, oc.attempted, oc.failed
	for _, d := range decls {
		fmt.Fprintf(e.out, "%s %s %s %s\n", e.workload, d.Name, strconv.FormatFloat(rec.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	if e.traced {
		err = writeSpans(filepath.Join(e.root, "bench", "out", e.workload+".spans.json"), e.workload, e.seed, e.rec.snapshot())
	}
	return rec, err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads (default all four, each in its own child process): "+strings.Join(workloadNames, ", "))
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "measured seconds per workload run")
		traced  = fs.Int("trace", 0, "1: traced run reporting per-layer metrics and writing span files")
		short   = fs.Bool("short", false, "smoke-test sizes; skips golden checks")
		regen   = fs.Bool("regen", false, "rewrite bench/testdata/golden.json and reference_cpi.json (untimed)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments: parent, then change")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "sparcbench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	list := workloadNames
	if *names != "" {
		list = strings.Split(*names, ",")
		for _, n := range list {
			if !slices.Contains(workloadNames, n) {
				return fail(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(workloadNames, ", ")))
			}
		}
	}
	if *traced != 0 && *traced != 1 {
		return fail(errors.New("-trace takes 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return fail(err)
	}
	base := env{root: root, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, short: *short, sizes: fullSizes, out: stdout,
		startCluster: procCluster(os.Getenv("SPARCBENCH_BIN"))}
	if *short {
		base.sizes = shortSizes
	}
	if err := readJSON(goldenPath(root), &base.golden); err != nil {
		return fail(err)
	}
	if err := readJSON(referencePath(root), &base.refs); err != nil {
		return fail(err)
	}
	if *regen {
		return regenerate(ctx, base, list, stderr)
	}
	if len(list) > 1 {
		return runChildren(ctx, base, list, stdout, stderr)
	}
	e := base
	e.workload = list[0]
	e.work = filepath.Join(root, "bench", "out", "work", fmt.Sprintf("%s-%d", e.workload, os.Getpid()))
	rec, err := runOne(ctx, &e)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", e.workload, err))
	}
	if err := writeRecords(root, []record{rec}); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runChildren runs each workload in its own child process, so resident
// set and GC state start clean, then prints a combined last line whose
// metric names are prefixed with the workload.
func runChildren(ctx context.Context, base env, list []string, stdout, stderr io.Writer) int {
	combined := result{Correct: true, Metrics: map[string]metricValue{}}
	var recs []record
	code := 0
	for _, name := range list {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(base.seed, 10),
			"-seconds", strconv.FormatFloat(base.dur.Seconds(), 'g', -1, 64), "-trace", strconv.Itoa(btoi(base.traced))}
		if base.short {
			args = append(args, "-short")
		}
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = time.Minute
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "sparcbench: %s: %v\n", name, err)
			code = 1
		}
		var last string
		for sc := bufio.NewScanner(&buf); sc.Scan(); {
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			combined.Correct = false
			continue
		}
		recs = append(recs, record{Workload: name, Seed: base.seed, Trace: btoi(base.traced), result: r})
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, v := range r.Metrics {
			combined.Metrics[name+"."+k] = v
		}
	}
	if err := writeRecords(base.root, recs); err != nil {
		fmt.Fprintf(stderr, "sparcbench: %v\n", err)
		code = 1
	}
	line, _ := json.Marshal(combined)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// regenerate runs every listed workload once per golden seed, untimed, and
// rewrites the golden digests and sweep-sampled's reference CPIs under the
// current model version. Entries of other model versions are dropped:
// this binary cannot check them.
func regenerate(ctx context.Context, base env, list []string, stderr io.Writer) int {
	v := core.ModelVersion
	golden := goldenDoc{Digests: map[string]map[string]map[string]string{v: base.golden.Digests[v]}}
	if golden.Digests[v] == nil {
		golden.Digests[v] = map[string]map[string]string{}
	}
	refs := referenceDoc{Insts: base.sizes.sweepInsts, CPI: map[string]map[string]map[string]float64{v: base.refs.CPI[v]}}
	if refs.CPI[v] == nil {
		refs.CPI[v] = map[string]map[string]float64{}
	}
	base.regen, base.short, base.traced = true, false, false
	base.sizes = fullSizes
	base.sizes.setups = 1
	for _, name := range list {
		golden.Digests[v][name] = map[string]string{}
		for _, seed := range goldenSeeds {
			e := base
			e.workload, e.seed = name, seed
			e.work = filepath.Join(base.root, "bench", "out", "work", fmt.Sprintf("regen-%s-%d", name, seed))
			oc, err := runWorkload(ctx, &e)
			if err != nil {
				fmt.Fprintf(stderr, "sparcbench: regen %s seed %d: %v\n", name, seed, err)
				return 1
			}
			golden.Digests[v][name][seedKey(seed)] = oc.digest
			if oc.refCPI != nil {
				refs.CPI[v][seedKey(seed)] = oc.refCPI
			}
			fmt.Fprintf(stderr, "regen %s seed %d %.16s\n", name, seed, oc.digest)
		}
	}
	if err := writeJSON(goldenPath(base.root), golden); err != nil {
		fmt.Fprintf(stderr, "sparcbench: %v\n", err)
		return 1
	}
	if err := writeJSON(referencePath(base.root), refs); err != nil {
		fmt.Fprintf(stderr, "sparcbench: %v\n", err)
		return 1
	}
	return 0
}

// writeRecords writes bench/out/result.json, one record per line: the
// format -compare reads (concatenate runs into one file per side).
func writeRecords(root string, recs []record) error {
	var b []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b = append(append(b, line...), '\n')
	}
	return os.WriteFile(filepath.Join(root, "bench", "out", "result.json"), b, 0o644)
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json and bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json with a bench/ directory above the working directory")
		}
		dir = parent
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
