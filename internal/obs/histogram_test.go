package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// le convention: a value exactly on a bound lands in that bound's
	// bucket; above the last bound lands in overflow.
	bounds := []float64{1, 2, 5}
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0},
		{0.5, 0},
		{1, 0}, // boundary value counts in its bucket (le, not lt)
		{1.0000001, 1},
		{2, 1},
		{3, 2},
		{5, 2},
		{5.1, 3}, // overflow
		{1e9, 3},
		{-4, 0},           // negatives clamp to 0
		{math.Inf(1), 3},  // +Inf is an overflow observation
		{math.NaN(), -1},  // dropped entirely
		{math.Inf(-1), 0}, // -Inf clamps like any negative
	}
	for _, tc := range cases {
		h := NewHistogram(bounds)
		h.Observe(tc.v)
		snap := h.Snapshot()
		if tc.bucket < 0 {
			if snap.Count != 0 {
				t.Errorf("Observe(%v): want dropped, got count=%d buckets=%v", tc.v, snap.Count, snap.Counts)
			}
			continue
		}
		if snap.Count != 1 {
			t.Fatalf("Observe(%v): count = %d, want 1", tc.v, snap.Count)
		}
		for i, c := range snap.Counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%v): bucket %d = %d, want %d (counts %v)", tc.v, i, c, want, snap.Counts)
			}
		}
	}
}

func TestHistogramSumClampsNegatives(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	h.Observe(-3) // clamped to 0, contributes nothing to the sum
	h.Observe(math.NaN())
	if got := h.Sum(); got != 0.5 {
		t.Errorf("Sum = %v, want 0.5", got)
	}
	if got := h.Snapshot().Count; got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {1, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v): want panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// Observe a known uniform population; every quantile estimate must land
	// within the width of the bucket holding the true quantile (the
	// documented error bound of bucket-interpolated quantiles).
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := NewHistogram(bounds)
	const n = 1000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) * 100 / n) // uniform on (0, 100]
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		truth := q * 100
		got := h.Quantile(q)
		if math.Abs(got-truth) > 10 { // one bucket width
			t.Errorf("Quantile(%v) = %v, want within 10 of %v", q, got, truth)
		}
	}
	// Uniform data interpolates nearly exactly; pin the median tightly so a
	// broken interpolation (e.g. always returning the upper bound) fails.
	if got := h.Quantile(0.5); math.Abs(got-50) > 0.5 {
		t.Errorf("Quantile(0.5) = %v, want ~50", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	h.Observe(10) // overflow only
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow Quantile = %v, want clamp to last bound 2", got)
	}
	// Out-of-range q clamps instead of panicking.
	if got := h.Quantile(-1); got != 2 {
		t.Errorf("Quantile(-1) = %v, want 2", got)
	}
	if got := h.Quantile(7); got != 2 {
		t.Errorf("Quantile(7) = %v, want 2", got)
	}
}

// TestHistogramQuantileOverflowClamp (regression): when observations land
// past the last finite boundary they fall in the implicit +Inf bucket,
// which has no upper bound to interpolate toward. A naive estimator
// returns the overflow bucket's *lower* bound for low quantiles and +Inf
// for high ones; the pinned contract is that every quantile of an
// overflow-heavy distribution clamps to the largest finite bound — always
// finite, never below the last boundary.
func TestHistogramQuantileOverflowClamp(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for i := 0; i < 100; i++ {
		h.Observe(1000) // all observations beyond the last boundary
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, must stay finite", q, got)
		}
		if got != 5 {
			t.Errorf("Quantile(%v) = %v, want clamp to last finite bound 5", q, got)
		}
	}

	// Mixed distribution: quantiles inside finite buckets interpolate as
	// usual; only the quantiles that land in the overflow tail clamp.
	m := NewHistogram([]float64{1, 2, 5})
	for i := 0; i < 90; i++ {
		m.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		m.Observe(99)
	}
	if got := m.Quantile(0.5); got > 1 {
		t.Errorf("mixed Quantile(0.5) = %v, want inside first bucket", got)
	}
	if got := m.Quantile(0.99); got != 5 {
		t.Errorf("mixed Quantile(0.99) = %v, want clamp to 5", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	// Race test: many goroutines observing one histogram while another
	// renders snapshots. Run with -race; also asserts no lost increments.
	h := NewHistogram(DefLatencyBuckets())
	const (
		workers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot()
				_ = h.Quantile(0.99)
			}
		}
	}()
	var ww sync.WaitGroup
	for g := 0; g < workers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 1e-6)
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	snap := h.Snapshot()
	if want := uint64(workers * perG); snap.Count != want {
		t.Fatalf("lost increments: count = %d, want %d", snap.Count, want)
	}
	var total uint64
	for _, c := range snap.Counts {
		total += c
	}
	if total != snap.Count {
		t.Fatalf("bucket total %d != count %d", total, snap.Count)
	}
	// Sum of 0..N-1 in µs, exact in float64 at this magnitude.
	n := float64(workers * perG)
	want := n * (n - 1) / 2 * 1e-6
	if math.Abs(snap.Sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", snap.Sum, want)
	}
}
