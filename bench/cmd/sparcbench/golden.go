package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"sparc64v/internal/system"
)

// check is one correctness check the run made; a non-nil err fails it.
type check struct {
	name string
	err  error
}

// summaryJSON is the canonical encoding of a report: its Summary, the
// same document sparc64sim -json and POST /v1/run emit.
func summaryJSON(r *system.Report) ([]byte, error) {
	return json.Marshal(r.Summary())
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reportDigest is the digest of a report's Summary.
func reportDigest(r *system.Report) (string, error) {
	b, err := summaryJSON(r)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// combine folds an ordered list of digests into one.
func combine(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// conserve checks invariants every finished run keeps whatever its seed:
// it did not stop at the cycle cap, it committed something, every CPU
// fetched at least what it committed, and the per-class commit counts add
// up to the commit count.
func conserve(r *system.Report) error {
	if r.HitCap {
		return errors.New("run hit the cycle cap")
	}
	if r.Committed == 0 {
		return errors.New("run committed nothing")
	}
	for i := range r.CPUs {
		c := &r.CPUs[i].Core
		if c.Fetched < c.Committed {
			return fmt.Errorf("cpu %d fetched %d < committed %d", i, c.Fetched, c.Committed)
		}
		var sum uint64
		for _, n := range c.CommittedByClass {
			sum += n
		}
		if sum != c.Committed {
			return fmt.Errorf("cpu %d per-class commits sum to %d, committed %d", i, sum, c.Committed)
		}
	}
	return nil
}

// goldenDoc is bench/testdata/golden.json: for each model version, the
// combined Summary digest of every workload's outputs at each golden seed.
type goldenDoc struct {
	Digests map[string]map[string]map[string]string `json:"digests"`
}

// referenceDoc is bench/testdata/reference_cpi.json: for each model
// version, the full-detail CPI of the base configuration per golden seed
// and profile, the reference sweep-sampled's sampling error is measured
// against.
type referenceDoc struct {
	Insts int                                      `json:"insts"`
	CPI   map[string]map[string]map[string]float64 `json:"cpi"`
}

// goldenSeeds are the seeds -regen records.
var goldenSeeds = []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func goldenPath(root string) string { return filepath.Join(root, "bench", "testdata", "golden.json") }
func referencePath(root string) string {
	return filepath.Join(root, "bench", "testdata", "reference_cpi.json")
}

// readJSON decodes path into v; a missing file leaves v untouched.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }
