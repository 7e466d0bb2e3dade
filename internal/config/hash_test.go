package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestConfigHashEqualValues pins that hashing is value-based: two
// independently built, value-identical configurations hash equal.
func TestConfigHashEqualValues(t *testing.T) {
	a, b := Base(), Base()
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("value-identical configs hash differently: %s vs %s", ha, hb)
	}
}

// TestConfigHashMutations pins that every kind of field mutation — top
// level, nested struct, bool flip, array element, string — changes the
// hash.
func TestConfigHashMutations(t *testing.T) {
	base, err := Base().Hash()
	if err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Name", func(c *Config) { c.Name = "other" }},
		{"CPUs", func(c *Config) { c.CPUs = 2 }},
		{"CPU.IssueWidth", func(c *Config) { c.CPU.IssueWidth = 2 }},
		{"CPU.SpeculativeDispatch", func(c *Config) { c.CPU.SpeculativeDispatch = false }},
		{"CPU.Latencies[0].Cycles", func(c *Config) { c.CPU.Latencies[0].Cycles++ }},
		{"L1D.SizeBytes", func(c *Config) { c.L1D.SizeBytes = 32 << 10 }},
		{"BHT.Entries", func(c *Config) { c.BHT.Entries = 4 << 10 }},
		{"RASEntries", func(c *Config) { c.RASEntries++ }},
		{"DTLB.MissPenalty", func(c *Config) { c.DTLB.MissPenalty++ }},
		{"Mem.L2.Ways", func(c *Config) { c.Mem.L2.Ways = 8 }},
		{"Mem.Prefetch", func(c *Config) { c.Mem.Prefetch = false }},
		{"Perfect.L2", func(c *Config) { c.Perfect.L2 = true }},
		{"Fidelity.TLBModeled", func(c *Config) { c.Fidelity.TLBModeled = false }},
		{"WarmupInsts", func(c *Config) { c.WarmupInsts++ }},
	}
	seen := map[string]string{base: "base"}
	for _, m := range muts {
		c := Base()
		m.mutate(&c)
		h, err := c.Hash()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %s collides with %s (hash %s)", m.name, prev, h)
		}
		seen[h] = m.name
	}
}

// goldenBaseHash is the content address of config.Base() computed once and
// pinned: it must be identical on every host, OS, and process run, or the
// run cache would silently re-simulate (or worse, cross-match) between
// machines. If a config field is deliberately added/changed, regenerate
// with: go test ./internal/config -run TestConfigHashGolden -v
const goldenBaseHash = "53c4167d3a09081c6d832a00bed9270908ad9a9b2f4bafbe6405cb3d1791afe0"

// TestConfigHashGolden pins cross-process stability.
func TestConfigHashGolden(t *testing.T) {
	h, err := Base().Hash()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("config.Base() hash: %s", h)
	if h != goldenBaseHash {
		t.Fatalf("config.Base() hash drifted: got %s want %s\n"+
			"(if the Config schema changed intentionally, update goldenBaseHash "+
			"AND bump core.ModelVersion so stale cache entries are not reused)", h, goldenBaseHash)
	}
}

// TestCanonicalJSONDeterministic pins that canonicalization is stable under
// repeated application and produces identical bytes for identical values.
func TestCanonicalJSONDeterministic(t *testing.T) {
	a, err := CanonicalJSON(Base())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(Base())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("canonical JSON differs between identical values")
	}
	// Canonical form must round-trip to itself (idempotence).
	again, err := canonicalRoundTrip(json.RawMessage(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, again) {
		t.Fatalf("canonicalization not idempotent:\n%s\nvs\n%s", a, again)
	}
}
