package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution. Bucket upper bounds follow the
// Prometheus le convention — a value lands in the first bucket whose bound
// is >= the value, so a value exactly on a boundary counts in that
// boundary's bucket — plus an implicit +Inf overflow bucket. Observation
// is lock-free (one atomic add per bucket/count, one CAS loop for the
// float sum), so workers can observe concurrently without serializing;
// p50/p90/p99 are derived from the bucket counts.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds, no +Inf
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// DefLatencyBuckets returns the repository's standard wall-time buckets in
// seconds: 5µs..120s in a ~1-2.5-5 progression. The range is set by what
// this system actually measures — cache hits and HTTP handling land in the
// microsecond decades, single simulations in 10ms..10s, full studies and
// drained shutdowns up to two minutes — and the coarse progression keeps a
// histogram at 23 buckets (cheap to expose) while bounding
// quantile interpolation error to the bucket width (~2.5x).
func DefLatencyBuckets() []float64 {
	return []float64{
		0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120,
	}
}

// NewHistogram builds a standalone histogram (registry-free: tests). Bounds must be non-empty and strictly increasing;
// anything else is a programming error and panics.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped and negative
// ones are clamped to zero: exposition must never show negative or NaN
// quantiles/sums, and a negative latency is always a caller bug (clock
// skew), not a signal worth corrupting the distribution for.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a consistent-enough copy of a histogram's state for
// rendering and assertions (individual loads are atomic; a snapshot taken
// mid-observation may be off by in-flight increments, never torn).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (no +Inf).
	Bounds []float64
	// Counts are per-bucket (not cumulative) counts; the last entry is the
	// +Inf overflow bucket, so len(Counts) == len(Bounds)+1.
	Counts []uint64
	// Count and Sum summarize all observations.
	Count uint64
	Sum   float64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts by
// linear interpolation inside the selected bucket, the same estimate a
// Prometheus histogram_quantile produces. The error is bounded by the
// bucket width; observations in the +Inf overflow bucket clamp to the
// highest finite bound. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	snap := h.Snapshot()
	var total uint64
	for _, c := range snap.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range snap.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i == len(snap.Bounds) {
				// Overflow bucket: no finite upper bound to interpolate
				// toward; clamp to the largest finite bound.
				return snap.Bounds[len(snap.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = snap.Bounds[i-1]
			}
			upper := snap.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum = next
	}
	return snap.Bounds[len(snap.Bounds)-1]
}
