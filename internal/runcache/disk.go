package runcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sparc64v/internal/system"
)

// The on-disk tier stores one JSON file per entry under the cache
// directory, named <key-ID>.json. Every write goes to a temp file in the
// same directory followed by an atomic rename, so a reader never observes
// a half-written entry under the final name. A crash mid-write can still
// leave a stale temp file (ignored — it never matches an ID) or, on
// filesystems without atomic-rename durability, a truncated final file;
// the checksum envelope below catches that case and any later corruption.

// diskEntry is the integrity envelope around a serialized report.
type diskEntry struct {
	// Key is the full content key, re-verified on load so a renamed or
	// garbled file can never satisfy the wrong request.
	Key Key `json:"key"`
	// Sum is the hex SHA-256 of the Report bytes.
	Sum string `json:"sha256"`
	// Report is the serialized system.Report.
	Report json.RawMessage `json:"report"`
}

// ensureDir creates the cache directory.
func ensureDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// entryPath returns the final path for a key ID.
func (c *Cache) entryPath(id string) string {
	return filepath.Join(c.dir, id+".json")
}

// loadDisk reads and verifies one entry. Every failure mode — missing
// file, truncated or bit-flipped content, checksum mismatch, key mismatch,
// undecodable report — is treated as a miss; corrupt files are deleted so
// they are rewritten on the next store.
func (c *Cache) loadDisk(id string, key Key) (rep system.Report, ok bool) {
	if c.dir == "" {
		return rep, false
	}
	path := c.entryPath(id)
	b, err := os.ReadFile(path)
	if err != nil {
		// Missing file: a stat-fail, not a read — keep it out of the
		// read-latency distribution.
		return rep, false
	}
	defer diskReadSeconds.ObserveSince(time.Now())
	rep, err = DecodeEntry(key, b)
	if err != nil {
		c.discardCorrupt(path)
		return rep, false
	}
	return rep, true
}

// storeDisk persists one entry atomically. Failures are recorded but not
// fatal: the cache degrades to memory-only for that entry.
func (c *Cache) storeDisk(id string, key Key, rep system.Report) {
	if c.dir == "" {
		return
	}
	defer diskWriteSeconds.ObserveSince(time.Now())
	b, err := EncodeEntry(key, rep)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, id+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.entryPath(id)); err != nil {
		os.Remove(tmp.Name())
	}
}

// discardCorrupt counts and removes a rejected entry file.
func (c *Cache) discardCorrupt(path string) {
	c.mu.Lock()
	c.stats.Corrupt++
	c.mu.Unlock()
	evCorrupt.Inc()
	os.Remove(path)
}
