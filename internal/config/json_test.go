package config

import (
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	base := Base().WithSmallBHT().WithCPUs(4)
	var sb strings.Builder
	if err := base.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := OverlayJSON(Config{}, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.CPUs != 4 || back.BHT.Entries != 4<<10 || back.Name != base.Name {
		t.Fatalf("round trip diverged: %+v", back)
	}
	if back.CPU.Latencies != base.CPU.Latencies {
		t.Fatal("latencies diverged")
	}
}

// TestFromJSONRejectsInvalid covers reading a whole configuration from
// JSON, which is an overlay on the zero Config.
func TestFromJSONRejectsInvalid(t *testing.T) {
	// Unknown fields fail loudly.
	if _, err := OverlayJSON(Config{}, strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Structurally valid JSON that fails validation fails too.
	var sb strings.Builder
	bad := Base()
	bad.CPUs = 0
	bad.WriteJSON(&sb)
	if _, err := OverlayJSON(Config{}, strings.NewReader(sb.String())); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Not JSON at all.
	if _, err := OverlayJSON(Config{}, strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestOverlayJSON(t *testing.T) {
	// A partial overlay changes only what it names.
	c, err := OverlayJSON(Base(), strings.NewReader(`{"CPUs": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.CPUs != 8 {
		t.Fatalf("CPUs = %d", c.CPUs)
	}
	if c.CPU.IssueWidth != 4 || c.Mem.L2.SizeBytes != 2<<20 {
		t.Fatal("overlay clobbered unrelated fields")
	}
	// An overlay that breaks validation is rejected.
	if _, err := OverlayJSON(Base(), strings.NewReader(`{"CPUs": -1}`)); err == nil {
		t.Fatal("invalid overlay accepted")
	}
	// One object only: a second object or any other bytes after it are an
	// error, not silently dropped; trailing whitespace is fine.
	for _, overlay := range []string{`{"CPUs":4} {"CPUs":8}`, `{"CPUs":4}junk`, `{"CPUs":4}]`} {
		if c, err := OverlayJSON(Base(), strings.NewReader(overlay)); err == nil {
			t.Errorf("overlay %s accepted (CPUs=%d)", overlay, c.CPUs)
		}
	}
	if c, err := OverlayJSON(Base(), strings.NewReader("{\"CPUs\":4}\n\t ")); err != nil || c.CPUs != 4 {
		t.Errorf("overlay with trailing whitespace: CPUs=%d, err %v", c.CPUs, err)
	}
}

// TestOverlayJSONRejectsBadGeometry table-tests the overlay validator on
// the malformed-geometry inputs the experiment service must turn into 400s:
// every case decodes as JSON but violates a structural constraint, so the
// error has to come from Validate, not the decoder.
func TestOverlayJSONRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name, overlay string
	}{
		{"unknown field", `{"NoSuchKnob": 1}`},
		{"unknown nested field", `{"L1D": {"SizzleBytes": 65536}}`},
		{"sets not a power of two", `{"L1D": {"SizeBytes": 98304, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`},
		{"size not divisible", `{"L1D": {"SizeBytes": 100000, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`},
		{"line size not a power of two", `{"L1D": {"SizeBytes": 131072, "Ways": 2, "LineBytes": 48, "HitCycles": 4}}`},
		{"zero hit latency", `{"L1D": {"SizeBytes": 131072, "Ways": 2, "LineBytes": 64, "HitCycles": 0}}`},
		{"negative ways", `{"Mem": {"L2": {"SizeBytes": 2097152, "Ways": -4, "LineBytes": 64, "HitCycles": 21}}}`},
		{"L1/L2 line size mismatch", `{"L1D": {"SizeBytes": 131072, "Ways": 2, "LineBytes": 32, "HitCycles": 4}}`},
		{"BHT sets not a power of two", `{"BHT": {"Entries": 12288, "Ways": 2, "AccessCycles": 1}}`},
		{"zero issue width", `{"CPU": {"IssueWidth": 0}}`},
		{"empty load queue", `{"CPU": {"LoadQueueEntries": 0}}`},
	} {
		if _, err := OverlayJSON(Base(), strings.NewReader(tc.overlay)); err == nil {
			t.Errorf("%s: overlay %s accepted", tc.name, tc.overlay)
		}
	}
	// The valid neighbors of the rejected cases still pass, so the table
	// is testing the constraint, not the decoder.
	for _, tc := range []struct {
		name, overlay string
	}{
		{"valid L1D shrink", `{"L1D": {"SizeBytes": 65536, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`},
		{"valid off-chip L2", `{"Mem": {"L2OffChip": true}}`},
	} {
		if _, err := OverlayJSON(Base(), strings.NewReader(tc.overlay)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
