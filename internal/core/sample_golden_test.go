package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestSampledReportsGolden pins the SHA-256 of every sampled Report's JSON
// on four memory configurations × three workloads × three trace lengths,
// plus the 4-CPU TPC-C 16P run. At 100k instructions a run measures eight
// windows, at 2.5k one, and at 800 the warm-up window consumes the whole
// trace, so the run reports the no-window fallback. A refactor of the
// sampled measurement path must keep every digest. Regenerate only for a
// deliberate model change:
// go test ./internal/core -run SampledReportsGolden -update
func TestSampledReportsGolden(t *testing.T) {
	sc := config.Sampling{IntervalInsts: 10_000, WarmupInsts: 1_000, MeasureInsts: 1_000}
	type run struct {
		cfg   config.Config
		p     workload.Profile
		insts int
	}
	var runs []run
	for _, cfg := range []config.Config{
		config.Base(), config.Base().WithSmallL1(), config.Base().WithOffChipL2(1), config.Base().WithoutPrefetch(),
	} {
		for _, p := range []workload.Profile{workload.SPECint95(), workload.SPECfp2000(), workload.TPCC()} {
			for _, insts := range []int{100_000, 2_500, 800} {
				runs = append(runs, run{cfg, p, insts})
			}
		}
	}
	runs = append(runs, run{config.Base().WithCPUs(4), workload.TPCC16P(), 100_000})

	got := map[string]string{}
	for _, r := range runs {
		m, err := NewModel(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.RunContext(context.Background(), r.p, RunOptions{Insts: r.insts, Sample: sc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[fmt.Sprintf("%s/%s/%d", r.cfg.Name, r.p.Name, r.insts)] = hex.EncodeToString(sum[:])
	}

	golden := filepath.Join("testdata", "sampled_reports.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (regenerate with -update)", name)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d digests, the run made %d", len(want), len(got))
	}
}
