package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 0.99); p.Beyond != 10 || !p.tailOK() || p.N != 1000 {
		t.Errorf("p99 of 1000: beyond %d ok %v, want 10 true", p.Beyond, p.tailOK())
	}
	if p := percentile(xs[:999], 0.99); p.Beyond != 9 || p.tailOK() {
		t.Errorf("p99 of 999: beyond %d ok %v, want 9 false", p.Beyond, p.tailOK())
	}
	if p := percentile(xs[:100], 0.9); p.Beyond != 10 || !p.tailOK() {
		t.Errorf("p90 of 100: beyond %d ok %v, want 10 true", p.Beyond, p.tailOK())
	}
	if p := percentile(xs[:3], 0.5); !p.tailOK() || p.Value != 2 {
		t.Errorf("median of 3 = %v ok %v; a median is always reportable", p.Value, p.tailOK())
	}
	if got := percentile(xs[:100], 0.5).Value; got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := percentile(xs[:100], 0.9).Value; math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
}

// The spread bound is checked with Python's statistics.quantiles(xs, n=4);
// these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMetricDeclarations(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q leaves the charset [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("setup_s must have the largest bound; %q has %v", d.Name, d.Bound)
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric it should move", d.Name)
		}
	}
}

// TestManifestMatchesDecls pins BENCHMARK.json to the metrics the program
// emits: same names, units, directions and bounds, in the same order.
func TestManifestMatchesDecls(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if !slices.Equal(m.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []metric, decls []metricDecl, bounded bool) {
		if len(got) != len(decls) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(decls))
			return
		}
		for i, d := range decls {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program declares %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

func TestEmit(t *testing.T) {
	decls := []metricDecl{{Name: "a.x", Unit: "ms"}, {Name: "b.y", Unit: "ms"}}
	got, err := emit(decls, map[string]float64{"a.x": 1.5}, []string{"b."})
	if err != nil || got["a.x"].Value != 1.5 || got["b.y"].Value != 0 || got["b.y"].Unit != "ms" {
		t.Errorf("emit with a not-on-path metric = %v, %v", got, err)
	}
	if _, err := emit(decls, map[string]float64{"a.x": 1}, nil); err == nil {
		t.Error("a declared metric nobody computed was emitted as 0")
	}
	if _, err := emit(decls, map[string]float64{"a.x": 1, "b.y": 2, "c.z": 3}, nil); err == nil {
		t.Error("an undeclared metric was emitted")
	}
	if _, err := emit(decls, map[string]float64{"a.x": math.NaN(), "b.y": 2}, nil); err == nil {
		t.Error("a NaN metric was emitted")
	}
}

func TestVerdict(t *testing.T) {
	d := metricDecl{Name: "sim_minst_per_s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"identical", base, "same"},
		{"clearly faster", scale(1.2), "better"},
		{"clearly slower", scale(0.8), "worse"},
		{"noisy", []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}, "unresolved"},
	} {
		if got := verdict(newSide(base), newSide(c.change), d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	if got := verdict(newSide(base), newSide(scale(0.8)), lower); got != "better" {
		t.Errorf("lower-is-better metric 20%% down: verdict %q, want better", got)
	}
}
