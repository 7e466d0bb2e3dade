package system

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// goldenDigest is one run's witness: the fold of every committed
// instruction's pipeline timestamps (traceDigest) and a hash of its Report.
type goldenDigest struct {
	Commits string `json:"commits"`
	Report  string `json:"report"`
}

// TestCommitDigestsGolden pins the per-instruction fetch, issue, dispatch,
// complete, commit and cancel timestamps of every wake configuration on
// every wake workload. TestStepMatchesEveryCycleReference runs the same
// scheduler on both of its sides, so it cannot see a scheduler that
// reorders dispatch; these digests were recorded from the window-polling
// scheduler and hold any rewrite of it to the same timing, instruction by
// instruction. Regenerate with:
// go test ./internal/system -run CommitDigestsGolden -update
func TestCommitDigestsGolden(t *testing.T) {
	const insts = 12_000
	got := map[string]goldenDigest{}
	for _, w := range wakeWorkloads() {
		replay := recordTraces(w, insts)
		for _, cfg := range wakeConfigs() {
			cfg := cfg.WithCPUs(w.cpus)
			cfg.WarmupInsts = insts / 4
			sys, err := New(cfg, replay())
			if err != nil {
				t.Fatal(err)
			}
			d := traceDigest(sys)
			if _, capped, _ := sys.RunContext(context.Background(), wakeCap); capped {
				t.Fatalf("%s/%s: hit the cycle cap", cfg.Name, w.p.Name)
			}
			h := fnv.New64a()
			h.Write([]byte(reportJSON(t, sys)))
			got[cfg.Name+"/"+w.p.Name] = goldenDigest{
				Commits: fmt.Sprintf("%016x", uint64(*d)),
				Report:  fmt.Sprintf("%016x", h.Sum64()),
			}
		}
	}
	golden := filepath.Join("testdata", "commit_digests.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (regenerate with -update)", name)
		} else if g != w {
			t.Errorf("%s: digest %+v, golden %+v", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d digests, the run made %d", len(want), len(got))
	}
}
