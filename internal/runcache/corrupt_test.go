package runcache

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sparc64v/internal/system"
)

// writeEntry populates a disk entry through the public path and returns
// the entry file's bytes and path.
func writeEntry(t *testing.T, dir string, key Key, rep system.Report) (string, []byte) {
	t.Helper()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := c.GetOrRun(context.Background(), key,
		func(context.Context) (system.Report, error) { return rep, nil }); err != nil || outcome != OutcomeMiss {
		t.Fatalf("store: outcome %v err %v", outcome, err)
	}
	path := filepath.Join(dir, key.ID()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("entry file not written: %v", err)
	}
	return path, b
}

// TestDiskEntryTruncatedAtEveryOffset mirrors the trace-reader truncation
// test: for a valid entry file cut at every byte offset, the cache must
// report a miss — and after the miss, re-running must repopulate a valid
// entry. A partially written entry may cost a re-simulation but can never
// surface a wrong result.
func TestDiskEntryTruncatedAtEveryOffset(t *testing.T) {
	key := testKey(11)
	want := testReport(11)
	_, full := writeEntry(t, t.TempDir(), key, want)

	for cut := 0; cut < len(full); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, key.ID()+".json")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := lookup(c, key); ok {
			t.Fatalf("cut at %d/%d: truncated entry served as a hit", cut, len(full))
		}
		if s := c.Stats(); s.Corrupt != 1 {
			t.Fatalf("cut at %d: corrupt counter = %d, want 1", cut, s.Corrupt)
		}
		// The corrupt file is gone; a re-run must repopulate and then hit.
		rep, outcome, err := c.GetOrRun(context.Background(), key,
			func(context.Context) (system.Report, error) { return want, nil })
		if err != nil || outcome != OutcomeMiss {
			t.Fatalf("cut at %d: repopulate outcome %v err %v", cut, outcome, err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("cut at %d: repopulated report mismatch", cut)
		}
		c2, _ := New(Options{Dir: dir})
		if _, ok := lookup(c2, key); !ok {
			t.Fatalf("cut at %d: repopulated entry not readable", cut)
		}
	}
}

// TestDiskEntryBitFlips flips one bit at a spread of offsets across an
// entry file; every flip must produce either a miss or the exact original
// report — never a silently different result.
func TestDiskEntryBitFlips(t *testing.T) {
	key := testKey(13)
	want := testReport(13)
	_, full := writeEntry(t, t.TempDir(), key, want)

	stride := len(full)/97 + 1
	for off := 0; off < len(full); off += stride {
		for bit := 0; bit < 8; bit += 3 {
			dir := t.TempDir()
			mut := append([]byte(nil), full...)
			mut[off] ^= 1 << bit
			path := filepath.Join(dir, key.ID()+".json")
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			c, _ := New(Options{Dir: dir})
			got, ok := lookup(c, key)
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("flip bit %d at offset %d: corrupted entry served wrong report", bit, off)
			}
		}
	}
}

// TestDiskEntryWrongKey pins that an entry renamed to another key's path
// (operator error, backup restore) is rejected by the embedded-key check.
func TestDiskEntryWrongKey(t *testing.T) {
	dir := t.TempDir()
	_, full := writeEntry(t, dir, testKey(1), testReport(1))
	other := testKey(2)
	if err := os.WriteFile(filepath.Join(dir, other.ID()+".json"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	c, _ := New(Options{Dir: dir})
	if _, ok := lookup(c, other); ok {
		t.Fatal("entry with mismatched embedded key served as a hit")
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", s.Corrupt)
	}
}

// TestDiskEntryEmptyAndGarbage covers zero-length and non-JSON files.
func TestDiskEntryEmptyAndGarbage(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not json at all \x00\xff")},
		{"wrong-shape", []byte(`[1,2,3]`)},
		{"valid-json-no-envelope", []byte(`{"foo":"bar"}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			key := testKey(1)
			if err := os.WriteFile(filepath.Join(dir, key.ID()+".json"), tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			c, _ := New(Options{Dir: dir})
			if _, ok := lookup(c, key); ok {
				t.Fatal("invalid entry served as a hit")
			}
		})
	}
}
