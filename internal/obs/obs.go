// Package obs is the repository's zero-dependency instrumentation layer:
// monotonic counters, gauges, fixed-bucket latency histograms, a named
// registry with Prometheus-style text exposition, and a per-run Span API
// that turns every simulation into a structured timing+counter profile.
//
// The paper's methodology lived on exactly this kind of visibility: the
// model stayed credible from pre-RTL studies to silicon because every run
// exposed per-component counters that could be cross-checked against an
// independent simulator (PAPER.md section 5). This package gives the
// modern service the same substrate — "where did this run spend its time",
// "what is p99 run latency under load", "did this PR regress the hot
// loop" — without pulling a metrics dependency into a simulator that must
// stay reproducible and fast.
//
// Design rules:
//
//   - everything is atomics; observation never takes a lock on the hot
//     path (the registry mutex guards only series creation and rendering);
//   - instrumentation may observe a simulation but never change it — the
//     regression test in internal/core pins byte-identical Reports and a
//     <5% wall-time bound with profiling enabled;
//   - exposition is deterministic: families and series render in sorted
//     order, so /metrics output is golden-testable and scrapers never see
//     churn from map iteration.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label (shorthand for composing series).
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. The zero value is usable;
// registry-created counters are shared by all callers of the same
// (name, labels).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, in-flight work).
// The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds, for family type checks and TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// counterFunc and gaugeFunc are series whose value is read from a
// function at render time (state another component already owns).
type (
	counterFunc func() uint64
	gaugeFunc   func() int64
)

// series is one labeled instance within a family.
type series struct {
	labels []Label // sorted by key
	metric any     // *Counter, *Gauge, *Histogram, counterFunc or gaugeFunc
}

// family groups the series sharing one metric name.
type family struct {
	name, help, kind string
	buckets          []float64 // histogram families only
	series           map[string]*series
}

// Registry is a set of named metrics with deterministic text exposition.
// All methods are safe for concurrent use; metric constructors are
// get-or-create, so independent packages can claim the same series and
// share it.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry (tests and isolated servers).
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry package-level
// instrumentation (sched, runcache, metamorph) registers into; the simd
// service renders it on /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// seriesKey canonicalizes labels: sorted by key, rendered once.
func seriesKey(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String(), ls
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the family, creating it with the given kind on first use.
// A name reused with a different kind is a programming error and panics.
func (r *Registry) get(name, help, kind string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// getSeries returns the family's series for labels, creating it via mk.
func (f *family) getSeries(r *Registry, labels []Label, mk func() any) any {
	key, ls := seriesKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: ls, metric: mk()}
		f.series[key] = s
	}
	return s.metric
}

// setFunc installs a func-backed series. A (name, labels) series can be
// backed by one function only, so an existing series is a programming
// error and panics.
func (f *family) setFunc(r *Registry, labels []Label, fn any) {
	key, ls := seriesKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := f.series[key]; ok {
		panic(fmt.Sprintf("obs: metric %s{%s} already registered", f.name, key))
	}
	f.series[key] = &series{labels: ls, metric: fn}
}

// Counter returns (creating on first use) the counter series for
// name+labels. Help is recorded on first registration.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.get(name, help, kindCounter, nil)
	return f.getSeries(r, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns (creating on first use) the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.get(name, help, kindGauge, nil)
	return f.getSeries(r, labels, func() any { return new(Gauge) }).(*Gauge)
}

// CounterFunc registers a counter series for name+labels whose value is
// fn(), read at render time. The family is get-or-create like Counter's;
// registering a series that already exists panics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.get(name, help, kindCounter, nil).setFunc(r, labels, counterFunc(fn))
}

// GaugeFunc is CounterFunc for a gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.get(name, help, kindGauge, nil).setFunc(r, labels, gaugeFunc(fn))
}

// Histogram returns (creating on first use) the histogram series for
// name+labels. Buckets are fixed at family creation; later calls may pass
// nil to reuse them. All series of one family share the bucket layout, so
// they render uniformly.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets()
	}
	f := r.get(name, help, kindHistogram, buckets)
	return f.getSeries(r, labels, func() any { return NewHistogram(f.buckets) }).(*Histogram)
}

// formatFloat renders exposition values: shortest representation that
// round-trips, matching what scrapers expect ("0.005", not "5e-03" — the
// 'g' format switches to exponent only for extreme magnitudes).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, series sorted by label key,
// histograms expanded into cumulative _bucket/_sum/_count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type renderSeries struct {
		key string
		s   *series
	}
	type renderFamily struct {
		f      *family
		series []renderSeries
	}
	fams := make([]renderFamily, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		rf := renderFamily{f: f}
		for key, s := range f.series {
			rf.series = append(rf.series, renderSeries{key, s})
		}
		sort.Slice(rf.series, func(i, j int) bool { return rf.series[i].key < rf.series[j].key })
		fams = append(fams, rf)
	}
	r.mu.Unlock()

	var b []byte
	for _, rf := range fams {
		f := rf.f
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, rs := range rf.series {
			suffix := ""
			if rs.key != "" {
				suffix = "{" + rs.key + "}"
			}
			switch m := rs.s.metric.(type) {
			case *Counter:
				b = fmt.Appendf(b, "%s%s %d\n", f.name, suffix, m.Value())
			case *Gauge:
				b = fmt.Appendf(b, "%s%s %d\n", f.name, suffix, m.Value())
			case counterFunc:
				b = fmt.Appendf(b, "%s%s %d\n", f.name, suffix, m())
			case gaugeFunc:
				b = fmt.Appendf(b, "%s%s %d\n", f.name, suffix, m())
			case *Histogram:
				b = appendHistogram(b, f.name, rs.key, m)
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// appendHistogram renders one histogram series: cumulative buckets with
// the le label spliced after the series labels, then _sum and _count.
func appendHistogram(b []byte, name, labelKey string, h *Histogram) []byte {
	snap := h.Snapshot()
	bucketLabels := func(le string) string {
		if labelKey == "" {
			return `{le="` + le + `"}`
		}
		return "{" + labelKey + `,le="` + le + `"}`
	}
	suffix := ""
	if labelKey != "" {
		suffix = "{" + labelKey + "}"
	}
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		b = fmt.Appendf(b, "%s_bucket%s %d\n", name, bucketLabels(formatFloat(bound)), cum)
	}
	cum += snap.Counts[len(snap.Counts)-1]
	b = fmt.Appendf(b, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum)
	b = fmt.Appendf(b, "%s_sum%s %s\n", name, suffix, formatFloat(snap.Sum))
	b = fmt.Appendf(b, "%s_count%s %d\n", name, suffix, snap.Count)
	return b
}
