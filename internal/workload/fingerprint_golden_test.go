package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparc64v/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceFingerprint is the SHA-256 of the first n records of g, each record
// encoded field by field in a fixed little-endian layout.
func traceFingerprint(g *Gen, n int) string {
	h := sha256.New()
	var r trace.Record
	var b [22]byte
	for i := 0; i < n; i++ {
		g.Next(&r)
		binary.LittleEndian.PutUint64(b[0:], r.PC)
		binary.LittleEndian.PutUint64(b[8:], r.EA)
		b[16], b[17], b[18], b[19], b[20] = uint8(r.Op), r.Dst, r.Src1, r.Src2, r.Size
		b[21] = 0
		if r.Taken {
			b[21] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceFingerprintsGolden pins the first 20k records of every named
// workload at two seeds on two CPU indices. The system commit digests and
// the sampled Report digests cover only some profiles; this covers every
// profile's generator directly, so a change to how the static program is
// built or walked cannot move any trace unnoticed. Regenerate only for a
// deliberate workload change:
// go test ./internal/workload -run TraceFingerprintsGolden -update
func TestTraceFingerprintsGolden(t *testing.T) {
	const n = 20_000
	got := map[string]string{}
	for _, name := range Names() {
		p, _ := ByName(name)
		for _, seed := range []int64{1, 7} {
			for _, cpu := range []int{0, 3} {
				key := fmt.Sprintf("%s/seed=%d/cpu=%d", name, seed, cpu)
				got[key] = traceFingerprint(New(p, seed, cpu), n)
			}
		}
	}
	golden := filepath.Join("testdata", "trace_fingerprints.json")
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
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden fingerprint (regenerate with -update)", key)
		} else if g != w {
			t.Errorf("%s: fingerprint %s, golden %s", key, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d fingerprints, the run made %d", len(want), len(got))
	}
}
