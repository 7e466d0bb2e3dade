package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "ignored on reuse", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter not shared")
	}
	if r.Counter("x_total", "", L("k", "other")) == a {
		t.Fatal("different labels must be a different series")
	}
	// Label order must not matter.
	g1 := r.Gauge("g", "", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("g", "", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Fatal("label order must not create a new series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.Gauge("m", "")
}

// TestRegistryFuncSeries: func-backed series render the function's value
// at render time, sort beside ordinary series of their family, and a
// second registration of the same (name, labels) panics.
func TestRegistryFuncSeries(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	depth := int64(-1)
	r.CounterFunc("hits_total", "Hits.", func() uint64 { return hits }, L("tier", "memory"))
	r.Counter("hits_total", "", L("tier", "disk")).Add(2)
	r.GaugeFunc("depth", "Depth.", func() int64 { return depth })
	hits, depth = 7, 3
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP depth Depth.\n# TYPE depth gauge\ndepth 3\n" +
		"# HELP hits_total Hits.\n# TYPE hits_total counter\n" +
		"hits_total{tier=\"disk\"} 2\nhits_total{tier=\"memory\"} 7\n"
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	for name, register := range map[string]func(){
		"counter func twice": func() { r.CounterFunc("hits_total", "", func() uint64 { return 0 }, L("tier", "memory")) },
		"func over counter":  func() { r.CounterFunc("hits_total", "", func() uint64 { return 0 }, L("tier", "disk")) },
		"gauge func twice":   func() { r.GaugeFunc("depth", "", func() int64 { return 0 }) },
		"kind mismatch":      func() { r.GaugeFunc("hits_total", "", func() int64 { return 0 }, L("tier", "x")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			register()
		}()
	}
}

func TestRegistryConcurrentCreate(t *testing.T) {
	// Race test: concurrent get-or-create plus rendering.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "h", L("w", string(rune('a'+g)))).Inc()
				r.Gauge("g", "h").Set(int64(i))
				r.Histogram("h_seconds", "h", nil, L("w", string(rune('a'+g)))).Observe(0.001)
				var b bytes.Buffer
				_ = r.WritePrometheus(&b)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if got := r.Counter("c_total", "", L("w", string(rune('a'+g)))).Value(); got != 200 {
			t.Fatalf("worker %d counter = %d, want 200", g, got)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "h", L("path", "a\\b\"c\nd")).Inc()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `e_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}

// scriptedClock replaces the package clock with a deterministic sequence:
// each call advances by step. Restores the real clock on cleanup.
func scriptedClock(t *testing.T, step time.Duration) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	var n int64
	now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
	t.Cleanup(func() { now = time.Now })
}

func TestExpositionGolden(t *testing.T) {
	// A scripted registry covering every metric kind, label shapes, and a
	// histogram with observations in the first, middle, boundary, and
	// overflow buckets. Any drift in the exposition format fails here
	// instead of silently breaking scrapers; regenerate deliberately with
	// `go test ./internal/obs -run Golden -update`.
	r := NewRegistry()
	r.Counter("sparc64v_demo_runs_total", "Completed demo runs.", L("study", "table1")).Add(3)
	r.Counter("sparc64v_demo_runs_total", "Completed demo runs.", L("study", "fig07")).Add(5)
	r.Counter("sparc64v_plain_total", "A label-free counter.").Add(7)
	r.Gauge("sparc64v_demo_queue_depth", "Requests holding a queue token.").Set(2)
	h := r.Histogram("sparc64v_demo_seconds", "Demo latency.", []float64{0.001, 0.01, 0.1, 1}, L("endpoint", "run"))
	for _, v := range []float64{0.0005, 0.05, 0.1, 4} {
		h.Observe(v)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", b.Bytes(), want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRegistry()
		// Insert in two different orders across calls via map-iteration
		// pressure: many series in one family.
		for _, s := range []string{"zeta", "alpha", "mid", "beta"} {
			r.Counter("d_total", "h", L("s", s)).Inc()
		}
		r.Histogram("d_seconds", "h", []float64{1}).Observe(0.5)
		var b bytes.Buffer
		_ = r.WritePrometheus(&b)
		return b.String()
	}
	first := mk()
	for i := 0; i < 10; i++ {
		if got := mk(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Series must appear sorted.
	if strings.Index(first, `s="alpha"`) > strings.Index(first, `s="zeta"`) {
		t.Fatalf("series not sorted:\n%s", first)
	}
}

func TestSpanProfile(t *testing.T) {
	scriptedClock(t, time.Millisecond)
	c := NewCollector()

	sp := c.StartSpan("run", "table1") // clock tick 1
	end := sp.Phase(PhaseBuild)        // tick 2
	end()                              // tick 3 → build = 1ms
	end = sp.Phase(PhaseSim)           // tick 4
	end()                              // tick 5 → sim = 1ms
	sp.Add("committed", 400)
	sp.Add("committed", 200)
	sp.Add("cycles", 1000)
	sp.Finish() // tick 6 → wall = 5ms

	dropped := c.StartSpan("run", "never-finished")
	_ = dropped // not finished → not published

	ps := c.Profiles()
	if len(ps) != 1 {
		t.Fatalf("profiles = %d, want 1 (unfinished spans excluded)", len(ps))
	}
	p := ps[0]
	if p.Name != "run" || p.Label != "table1" {
		t.Fatalf("identity = %s/%s", p.Name, p.Label)
	}
	if p.WallSeconds != 0.005 {
		t.Errorf("wall = %v, want 0.005", p.WallSeconds)
	}
	wantPhases := []PhaseSeconds{{PhaseBuild, 0.001}, {PhaseSim, 0.001}}
	if len(p.Phases) != 2 || p.Phases[0] != wantPhases[0] || p.Phases[1] != wantPhases[1] {
		t.Errorf("phases = %+v, want %+v", p.Phases, wantPhases)
	}
	wantCounters := []CounterValue{{"committed", 600}, {"cycles", 1000}}
	if len(p.Counters) != 2 || p.Counters[0] != wantCounters[0] || p.Counters[1] != wantCounters[1] {
		t.Errorf("counters = %+v, want %+v", p.Counters, wantCounters)
	}
}

func TestNilCollectorAndSpanAreSafe(t *testing.T) {
	var c *Collector
	sp := c.StartSpan("run", "x")
	if sp != nil {
		t.Fatal("nil collector must hand out nil spans")
	}
	end := sp.Phase(PhaseSim)
	end()
	sp.Add("n", 1)
	sp.Finish()
	if got := c.Profiles(); got != nil {
		t.Fatalf("nil collector profiles = %v", got)
	}
	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"profiles": []`) {
		t.Fatalf("nil collector JSON = %s", b.String())
	}
}

func TestCollectorJSONDeterministic(t *testing.T) {
	scriptedClock(t, time.Millisecond)
	c := NewCollector()
	// Publish out of order; dump must sort by (name, label).
	for _, label := range []string{"zeta", "alpha"} {
		sp := c.StartSpan("run", label)
		sp.Add("n", 1)
		sp.Finish()
	}
	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Fatalf("profiles not sorted:\n%s", s)
	}
}

func TestCollectorConcurrentSpans(t *testing.T) {
	// Race test: spans finishing from many goroutines while profiles are
	// being read.
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := c.StartSpan("run", "w")
				end := sp.Phase(PhaseSim)
				sp.Add("n", int64(i))
				end()
				sp.Finish()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = c.Profiles()
		}
	}()
	wg.Wait()
	<-done
	if got := len(c.Profiles()); got != 800 {
		t.Fatalf("profiles = %d, want 800", got)
	}
}
