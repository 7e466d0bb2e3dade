package runcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"sparc64v/internal/system"
)

// The remote tier turns one node's cache hit into a cluster-wide hit.
// A Cache configured with SetRemote consults it after the memory and
// disk tiers miss and before simulating: the fetcher (internal/server's
// PeerFetcher in production) asks peer nodes for the entry over HTTP.
//
// Trust boundary: a peer's bytes are untrusted input. Fetch returns the
// raw entry envelope and the cache re-verifies it locally — key identity
// and content checksum — exactly as it verifies its own disk files. A
// corrupted or mismatched peer response is counted (Stats.PeerCorrupt,
// the "corrupt-peer" event) and treated as a miss, never returned.

// Remote fetches a serialized entry envelope (EncodeEntry bytes) for a
// key from somewhere else — peer nodes, an object store. ok=false means
// the remote tier has no entry (or could not be reached); the caller
// falls through to simulating. Implementations must not recurse into
// another Cache's remote tier: peer lookups answer from local tiers
// only, or a miss could ricochet around the cluster.
type Remote interface {
	Fetch(ctx context.Context, key Key) ([]byte, bool)
}

// SetRemote installs the remote tier. Call before serving traffic;
// passing nil disables remote lookups.
func (c *Cache) SetRemote(r Remote) {
	c.mu.Lock()
	c.remote = r
	c.mu.Unlock()
}

// EncodeEntry serializes a report into the integrity envelope peers and
// the disk tier share: the full key (so a misrouted entry can never
// satisfy the wrong request) plus a SHA-256 over the report bytes.
func EncodeEntry(key Key, rep system.Report) ([]byte, error) {
	rb, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("runcache: encode entry report: %w", err)
	}
	sum := sha256.Sum256(rb)
	b, err := json.Marshal(diskEntry{Key: key, Sum: hex.EncodeToString(sum[:]), Report: rb})
	if err != nil {
		return nil, fmt.Errorf("runcache: encode entry: %w", err)
	}
	return b, nil
}

// DecodeEntry parses and verifies an entry envelope against the key the
// caller asked for. Every failure mode — undecodable envelope, key
// mismatch, checksum mismatch, undecodable report — is an error; the
// caller treats it as a miss.
func DecodeEntry(key Key, b []byte) (system.Report, error) {
	var rep system.Report
	var e diskEntry
	if err := json.Unmarshal(b, &e); err != nil {
		return rep, fmt.Errorf("runcache: entry envelope: %w", err)
	}
	if e.Key.ID() != key.ID() {
		return rep, fmt.Errorf("runcache: entry key %s does not match requested %s", e.Key.ID(), key.ID())
	}
	sum := sha256.Sum256(e.Report)
	if hex.EncodeToString(sum[:]) != e.Sum {
		return rep, fmt.Errorf("runcache: entry checksum mismatch")
	}
	if err := json.Unmarshal(e.Report, &rep); err != nil {
		return rep, fmt.Errorf("runcache: entry report: %w", err)
	}
	return rep, nil
}

// EntryBytes serves one entry to a peer: the envelope for id from the
// local memory or disk tier, or ok=false. It deliberately never consults
// the remote tier (no fetch recursion) and never touches the hit
// counters — a peer's probe is not a local request. Disk bytes are
// returned as stored; the requesting side verifies them, so a corrupted
// file costs the peer a rejected fetch, never a wrong result.
func (c *Cache) EntryBytes(id string) ([]byte, bool) {
	c.mu.Lock()
	if n, ok := c.mem[id]; ok {
		key, rep := n.key, cloneReport(n.rep)
		c.mu.Unlock()
		b, err := EncodeEntry(key, rep)
		if err != nil {
			return nil, false
		}
		return b, true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.entryPath(id))
	if err != nil {
		return nil, false
	}
	return b, true
}

// fetchRemote is the miss path's remote-tier probe (called by claim with
// no locks held). On a verified hit the entry is persisted to the local
// disk tier, so the next request — local or a further peer's — is served
// without re-crossing the network.
func (c *Cache) fetchRemote(ctx context.Context, id string, key Key) (system.Report, bool) {
	c.mu.Lock()
	remote := c.remote
	c.mu.Unlock()
	if remote == nil {
		return system.Report{}, false
	}
	b, ok := remote.Fetch(ctx, key)
	if !ok {
		return system.Report{}, false
	}
	rep, err := DecodeEntry(key, b)
	if err != nil {
		c.mu.Lock()
		c.stats.PeerCorrupt++
		c.mu.Unlock()
		evPeerCorrupt.Inc()
		return system.Report{}, false
	}
	c.storeDisk(id, key, rep)
	return rep, true
}
