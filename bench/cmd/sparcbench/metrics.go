package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricDecl declares one metric. BENCHMARK.json at the repository root
// lists the same metrics with the same units, directions and bounds;
// TestManifestMatchesDecls keeps the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound (end-to-end only) is the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	Bound float64
	// Moves (per-layer only) names the end-to-end metric and workload the
	// layer metric should move. "exact" marks simulated statistics that a
	// change meant only to speed up the simulator must leave identical.
	Moves string
}

// endToEnd are the metrics a user of the simulator or the service sees.
// Every workload reports all of them from its untraced run.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, one set per layer of the
// repository. A layer a workload does not exercise reports 0 for it.
var perLayer = []metricDecl{
	{"workload.gen_ns_per_inst", "ns", "lower", 0, "sim_minst_per_s on sweep-sampled"},
	{"trace.encode_ns_per_rec", "ns", "lower", 0, "setup_s on up-full and smp-tpcc16"},
	{"trace.decode_ns_per_rec", "ns", "lower", 0, "sim_minst_per_s on up-full and smp-tpcc16"},
	{"trace.fanout_ns_per_rec", "ns", "lower", 0, "sim_minst_per_s on sweep-sampled"},
	{"cpu.ns_per_cpu_cycle", "ns", "lower", 0, "sim_minst_per_s on up-full and smp-tpcc16"},
	{"cpu.ns_per_detailed_inst", "ns", "lower", 0, "sim_minst_per_s on up-full, smp-tpcc16 and sweep-sampled"},
	{"cpu.zero_commit_share", "share", "lower", 0, "exact; idle-cycle skipping headroom for sim_minst_per_s on smp-tpcc16"},
	{"cpu.ipc", "inst/cycle", "higher", 0, "exact"},
	{"bpred.mispredicts_per_kinst", "count", "lower", 0, "exact"},
	{"cache.l1i_mpki", "count", "lower", 0, "exact"},
	{"cache.l1d_mpki", "count", "lower", 0, "exact"},
	{"cache.l2_mpki", "count", "lower", 0, "exact"},
	{"tlb.stall_cycles_per_kinst", "cycles", "lower", 0, "exact"},
	{"coherence.c2c_per_kinst", "count", "lower", 0, "exact"},
	{"coherence.invalidations_per_kinst", "count", "lower", 0, "exact"},
	{"mem.bus_wait_cycles_per_kinst", "cycles", "lower", 0, "exact"},
	{"mem.dram_wait_cycles_per_kinst", "cycles", "lower", 0, "exact"},
	{"system.ns_per_global_cycle", "ns", "lower", 0, "sim_minst_per_s on smp-tpcc16"},
	{"core.build_ms_per_run", "ms", "lower", 0, "op_p50_ms on smp-tpcc16; sim_minst_per_s on service-mix"},
	{"core.report_ms_per_run", "ms", "lower", 0, "op_p50_ms on up-full"},
	{"core.ff_ns_per_inst", "ns", "lower", 0, "sim_minst_per_s on sweep-sampled"},
	{"core.allocs_per_run", "count", "lower", 0, "rss_mib and sim_minst_per_s on every workload"},
	{"core.alloc_bytes_per_kinst", "B", "lower", 0, "rss_mib and sim_minst_per_s on every workload"},
	{"core.sampled_cpi_err_pct", "%", "lower", 0, "exact; accuracy of sweep-sampled"},
	{"sched.busy_share", "share", "higher", 0, "sim_minst_per_s on sweep-sampled"},
	{"runcache.hit_ratio", "share", "higher", 0, "op_p50_ms and sim_minst_per_s on service-mix"},
	{"runcache.disk_write_ms_mean", "ms", "lower", 0, "sim_minst_per_s on service-mix"},
	{"runcache.peer_probes_per_miss", "count", "lower", 0, "sim_minst_per_s on service-mix"},
	{"server.hit_direct_ms_p50", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"server.miss_overhead_ms", "ms", "lower", 0, "sim_minst_per_s on service-mix"},
	{"server.estimate_overhead_ms", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"server.resp_bytes_per_run", "B", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.hit_p50_ms", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.hit_p99_ms", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.miss_p50_ms", "ms", "lower", 0, "sim_minst_per_s on service-mix"},
	{"gateway.miss_p90_ms", "ms", "lower", 0, "sim_minst_per_s on service-mix"},
	{"gateway.estimate_p50_ms", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.estimate_p90_ms", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.hop_ms_p50", "ms", "lower", 0, "op_p50_ms on service-mix"},
	{"gateway.retries", "count", "lower", 0, "exact; must stay 0 on service-mix"},
	{"analytic.estimate_us_p50", "us", "lower", 0, "op_p50_ms on service-mix"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "none; the cost of tracing itself"},
	{"bench.unattributed_pct", "%", "lower", 0, "none; op wall no layer span covers"},
}

// metricName is the charset every metric name must keep.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints to standard output: exactly these
// four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as written to bench/out/result.json and read
// back by -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// emit turns a workload's computed values into the declared metric set.
// Every declared metric must be computed, except per-layer metrics whose
// layer the workload does not exercise (names matching a notOnPath
// prefix), which read 0; anything undeclared or non-finite is an error.
func emit(decls []metricDecl, got map[string]float64, notOnPath []string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := got[d.Name]
		if !ok {
			if !hasPrefix(d.Name, notOnPath) {
				return nil, fmt.Errorf("metric %s was not computed", d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond is the number of n samples that lie above the q-quantile. A tail
// percentile is reported only when at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// pctl is one reported percentile with its sample count.
type pctl struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
}

// percentile computes the q-quantile of xs with its sample accounting.
func percentile(xs []float64, q float64) pctl {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pctl{Q: q, Value: quantile(s, q), N: len(s), Beyond: beyond(len(s), q)}
}

// tailOK reports whether p may be reported as a tail percentile.
func (p pctl) tailOK() bool { return p.Q <= 0.5 || p.Beyond >= 10 }

// quartiles returns the three cut points statistics.quantiles(xs, n=4)
// gives in Python's default "exclusive" method, the definition the
// benchmark's spread bounds are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	ld, m, n := len(s), len(s)+1, 4
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cut[0], cut[1], cut[2]
}
