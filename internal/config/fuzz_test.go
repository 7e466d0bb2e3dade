package config

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzConfigOverlay fuzzes the configuration overlay, the JSON surface
// behind sparc64sim -config and every service request's "config" field:
// no input panics, an accepted overlay's canonical bytes equal the round
// trip oracle's, and it is a fixed point of its own serialization —
// written with WriteJSON and overlaid on Base() again, it has the same
// content address.
func FuzzConfigOverlay(f *testing.F) {
	for _, seed := range []string{
		`{"CPUs": 8}`,
		`{"CPU": {"IssueWidth": 2}}`,
		`{"L1D": {"SizeBytes": 65536, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`,
		`{"Mem": {"L2OffChip": true}}`,
		`{"BHT": {"Entries": 4096, "Ways": 2, "AccessCycles": 1}}`,
		`{"L1D": {"SizeBytes": 98304, "Ways": 2, "LineBytes": 64, "HitCycles": 4}}`,
		`{"CPUs":4} {"CPUs":8}`,
		`{"NoSuchKnob": 1}`,
		`{"CPUs": -1}`,
		`{"ITLB": {"Entries": 0}}`,
		`{"DTLB": {"PageBytes": 3000}}`,
		`{"RASEntries": -1}`,
		`{"Mem": {"PrefetchDegree": 0, "PrefetchTableEntries": 48}}`,
		`null`,
		`[]`,
		``,
		`{"L1D": {"MSHRs": 0}}`,
		`{"Mem": {"DRAMBanks": 6, "DRAMCycles": 0}}`,
		`{"CPU": {"FetchBytes": 0, "ForwardDelay": -1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, overlay []byte) {
		c, err := OverlayJSON(Base(), bytes.NewReader(overlay))
		if err != nil {
			return
		}
		assertMatchesOracle(t, fmt.Sprintf("overlay %q", overlay), c)
		want, err := c.Hash()
		if err != nil {
			t.Fatalf("overlay %q: hash: %v", overlay, err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("overlay %q: write: %v", overlay, err)
		}
		again, err := OverlayJSON(Base(), &buf)
		if err != nil {
			t.Fatalf("overlay %q: its own serialization is rejected: %v", overlay, err)
		}
		if got, _ := again.Hash(); got != want {
			t.Fatalf("overlay %q: hash %s, but %s after a WriteJSON round trip", overlay, want, got)
		}
	})
}
