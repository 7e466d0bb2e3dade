package litmus

import (
	"context"
	"testing"
)

// FuzzLitmusOutcomes drives the conformance harness over the whole
// parameter space the sweep driver samples — shape, seed, random-skew
// bound and structural skew pattern — and requires that the stock model
// never produces a TSO-forbidden outcome and never diverges from the
// value shadow. The seed corpus in testdata/fuzz covers every catalog
// shape; the nightly CI job fuzzes beyond it.
func FuzzLitmusOutcomes(f *testing.F) {
	names := Names()
	f.Add(uint8(0), int64(1), uint8(96), uint8(0))   // sb, aligned
	f.Add(uint8(1), int64(7), uint8(64), uint8(2))   // mp, reader late
	f.Add(uint8(2), int64(3), uint8(32), uint8(1))   // lb, cpu0 late
	f.Add(uint8(3), int64(11), uint8(16), uint8(0))  // corr
	f.Add(uint8(4), int64(13), uint8(8), uint8(2))   // coww
	f.Add(uint8(5), int64(5), uint8(128), uint8(5))  // iriw, readers late
	f.Add(uint8(6), int64(17), uint8(96), uint8(3))  // sbn4
	f.Add(uint8(7), int64(23), uint8(255), uint8(4)) // sbn8
	cfg := BaseConfig()
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, maxSkew uint8, pattern uint8) {
		tt, _ := ByName(names[int(shape)%len(names)])
		patterns := skewPatterns(tt)
		bopt := BuildOptions{
			Seed:      seed,
			MaxSkew:   int(maxSkew),
			MaxGap:    3,
			ExtraSkew: patterns[int(pattern)%len(patterns)],
		}
		res, err := Run(context.Background(), tt, cfg, bopt)
		if err != nil {
			t.Fatalf("%s seed=%d skew=%d pattern=%d: %v", tt.Name, seed, maxSkew, pattern, err)
		}
		if !res.Allowed {
			t.Fatalf("%s seed=%d skew=%d pattern=%d: TSO-forbidden outcome %s",
				tt.Name, seed, maxSkew, pattern, OutcomeString(res.Outcome))
		}
	})
}
