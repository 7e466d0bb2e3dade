package config

// Sampled-simulation parameters (SMARTS-style systematic sampling).
//
// A sampled run splits the trace into fixed-size intervals. Each interval
// is mostly fast-forwarded through a functional executor that keeps the
// caches, TLBs and branch predictor warm at ~1 IPC cost; only the tail of
// the interval runs on the detailed out-of-order model — first a warm-up
// window whose statistics are discarded (it re-establishes pipeline and
// queue state the functional mode does not track), then a measurement
// window that contributes to the reported statistics. Whole-run CPI is the
// ratio estimator over all measurement windows; the per-window CPI spread
// yields a confidence bound.
//
// The type lives in package config so it participates in canonical-JSON
// hashing: a sampled run and a full run of the same machine are different
// content addresses (see runcache.Key.Sampling).

import (
	"fmt"
	"strconv"
	"strings"
)

// Sampling configures sampled simulation. The zero value means "disabled":
// every instruction runs on the detailed model.
type Sampling struct {
	// IntervalInsts is the sampling period per CPU in instructions: one
	// measurement is taken every IntervalInsts instructions.
	IntervalInsts int `json:"interval_insts"`
	// WarmupInsts is the detailed warm-up window preceding each
	// measurement window. Its statistics are discarded.
	WarmupInsts int `json:"warmup_insts"`
	// MeasureInsts is the detailed measurement window per interval.
	MeasureInsts int `json:"measure_insts"`
	// OffsetInsts is fast-forwarded once before the first interval,
	// phase-shifting the sampling grid (SMARTS' random offset; here it is
	// explicit so runs stay reproducible).
	OffsetInsts int `json:"offset_insts"`
}

// Enabled reports whether sampling is in effect.
func (s Sampling) Enabled() bool { return s.IntervalInsts > 0 }

// Validate checks the window arithmetic. The zero value is valid
// (sampling disabled).
func (s Sampling) Validate() error {
	if !s.Enabled() {
		if s != (Sampling{}) {
			return fmt.Errorf("config: sampling windows set but interval is 0")
		}
		return nil
	}
	if s.MeasureInsts <= 0 {
		return fmt.Errorf("config: sampling measure window must be positive, got %d", s.MeasureInsts)
	}
	if s.WarmupInsts < 0 || s.OffsetInsts < 0 {
		return fmt.Errorf("config: sampling warmup/offset must be non-negative")
	}
	if s.WarmupInsts+s.MeasureInsts > s.IntervalInsts {
		return fmt.Errorf("config: sampling warmup+measure (%d) exceeds interval (%d)",
			s.WarmupInsts+s.MeasureInsts, s.IntervalInsts)
	}
	return nil
}

// String renders the spec in the form ParseSampling accepts.
func (s Sampling) String() string {
	if !s.Enabled() {
		return "off"
	}
	str := fmt.Sprintf("interval=%d,warmup=%d,measure=%d", s.IntervalInsts, s.WarmupInsts, s.MeasureInsts)
	if s.OffsetInsts != 0 {
		str += fmt.Sprintf(",offset=%d", s.OffsetInsts)
	}
	return str
}

// DefaultSampling returns the stock sampling schedule for a trace of n
// instructions per CPU: intervals sized for ~10 measurement windows with a
// 2k-instruction detailed warm-up and a measurement window of interval/20,
// clamped so the window arithmetic stays valid on short traces.
func DefaultSampling(n int) Sampling {
	const (
		minInterval = 10_000
		warmup      = 2_000
	)
	interval := n / 10
	if interval < minInterval {
		interval = minInterval
	}
	measure := interval / 20
	if measure < 1_000 {
		measure = 1_000
	}
	s := Sampling{IntervalInsts: interval, WarmupInsts: warmup, MeasureInsts: measure}
	if s.WarmupInsts+s.MeasureInsts > s.IntervalInsts {
		s.WarmupInsts = s.IntervalInsts / 4
		s.MeasureInsts = s.IntervalInsts / 4
	}
	return s
}

// ParseSampling parses a -sample flag value:
//
//	""            sampling disabled (zero value)
//	"off"         sampling disabled
//	"auto"        DefaultSampling for the run's instruction count
//	"interval=100000,warmup=2000,measure=5000[,offset=N]"
//
// autoInsts supplies the trace length "auto" derives its schedule from.
func ParseSampling(spec string, autoInsts int) (Sampling, error) {
	switch strings.TrimSpace(spec) {
	case "", "off":
		return Sampling{}, nil
	case "auto", "on":
		return DefaultSampling(autoInsts), nil
	}
	var s Sampling
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Sampling{}, fmt.Errorf("config: sampling spec %q: want key=value, got %q", spec, kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return Sampling{}, fmt.Errorf("config: sampling spec %q: %s=%q is not an integer", spec, k, v)
		}
		switch k {
		case "interval":
			s.IntervalInsts = n
		case "warmup":
			s.WarmupInsts = n
		case "measure":
			s.MeasureInsts = n
		case "offset":
			s.OffsetInsts = n
		default:
			return Sampling{}, fmt.Errorf("config: sampling spec %q: unknown key %q", spec, k)
		}
	}
	if err := s.Validate(); err != nil {
		return Sampling{}, err
	}
	return s, nil
}
