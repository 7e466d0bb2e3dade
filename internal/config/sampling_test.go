package config

import (
	"strings"
	"testing"
)

func TestSamplingValidate(t *testing.T) {
	cases := []struct {
		s  Sampling
		ok bool
	}{
		{Sampling{}, true}, // zero value: disabled
		{Sampling{IntervalInsts: 100_000, WarmupInsts: 2_000, MeasureInsts: 5_000}, true},
		{Sampling{IntervalInsts: 100, WarmupInsts: 60, MeasureInsts: 50}, false}, // warm+measure > interval
		{Sampling{IntervalInsts: 100, MeasureInsts: 0}, false},                   // no measurement
		{Sampling{IntervalInsts: 100, MeasureInsts: 50, WarmupInsts: -1}, false},
		{Sampling{MeasureInsts: 50}, false},                   // windows set but interval 0
		{Sampling{IntervalInsts: 10, MeasureInsts: 10}, true}, // zero-length fast-forward
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestParseSampling(t *testing.T) {
	s, err := ParseSampling("interval=100000,warmup=2000,measure=5000,offset=7", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Sampling{IntervalInsts: 100_000, WarmupInsts: 2_000, MeasureInsts: 5_000, OffsetInsts: 7}
	if s != want {
		t.Errorf("parsed %+v, want %+v", s, want)
	}
	if round, err := ParseSampling(s.String(), 0); err != nil || round != s {
		t.Errorf("String round trip: %+v, %v", round, err)
	}

	for _, spec := range []string{"", "off"} {
		if s, err := ParseSampling(spec, 400_000); err != nil || s.Enabled() {
			t.Errorf("ParseSampling(%q) = %+v, %v", spec, s, err)
		}
	}
	auto, err := ParseSampling("auto", 400_000)
	if err != nil || !auto.Enabled() {
		t.Fatalf("auto: %+v, %v", auto, err)
	}
	if err := auto.Validate(); err != nil {
		t.Errorf("auto schedule invalid: %v", err)
	}
	// Auto schedules stay valid even for tiny traces.
	tiny, err := ParseSampling("auto", 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny auto schedule invalid: %v (%+v)", err, tiny)
	}

	for _, bad := range []string{"interval=x", "nope=3", "interval=100,warmup=60,measure=50", "interval"} {
		if _, err := ParseSampling(bad, 0); err == nil {
			t.Errorf("ParseSampling(%q) accepted", bad)
		}
	}
}

// TestSamplingValidateRejectsOverlap (regression): a schedule whose
// warm-up + measurement exceeds the interval has a negative fast-forward
// gap — the sampled driver would never converge on its schedule. The
// rejection must happen at Validate (so every entry point — flag parsing,
// HTTP overlays, direct RunOptions — fails before simulation) and the
// message must carry the offending arithmetic.
func TestSamplingValidateRejectsOverlap(t *testing.T) {
	s := Sampling{IntervalInsts: 10_000, WarmupInsts: 6_000, MeasureInsts: 5_000}
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted warmup+measure > interval")
	}
	for _, want := range []string{"11000", "10000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not carry %s", err, want)
		}
	}
	// The boundary case — windows exactly filling the interval — is a legal
	// zero-length fast-forward schedule, not an overlap.
	ok := Sampling{IntervalInsts: 11_000, WarmupInsts: 6_000, MeasureInsts: 5_000}
	if err := ok.Validate(); err != nil {
		t.Errorf("exact-fit schedule rejected: %v", err)
	}
	if _, err := ParseSampling("interval=10000,warmup=6000,measure=5000", 0); err == nil {
		t.Error("ParseSampling accepted overlapping schedule")
	}
}
