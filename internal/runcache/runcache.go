// Package runcache is a deterministic, content-addressed cache for
// simulation results.
//
// The paper's methodology re-ran the same trace-driven model thousands of
// times across parameter variants from pre-RTL studies through silicon
// verification; most of those runs repeat earlier ones exactly. A run here
// is fully determined by (configuration, workload, seed, trace length,
// model version), so its result can be addressed by a canonical hash of
// that tuple (internal/config's CanonicalJSON/HashJSON layer) and served from a
// cache instead of re-simulated.
//
// The cache is two-tiered: a bounded in-memory LRU for hot entries, and an
// optional on-disk tier (one JSON file per entry, written atomically via
// temp-file + rename) that makes sweeps incremental across process runs.
// Disk entries carry a checksum envelope; a partially written or corrupted
// file is detected, discarded, and treated as a miss — never returned as a
// wrong result.
//
// Every run in progress is a flight in the cache's one flight table, and
// every caller — a lone HTTP request (GetOrRun) or a lockstep batch of
// many keys (Claim, then Complete and Wait) — goes through it. Concurrent
// requests for the same key therefore share one underlying simulation
// (singleflight dedup), which is what lets an HTTP service absorb a burst
// of identical requests with a single model run, and a batch never
// simulates a key that another caller is already running. A flight is
// owned by the cache, not by the caller that leads it: it runs on a
// context detached from the leader's, and a reference count cancels it
// only when its last waiter, leader included, has gone.
package runcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"sparc64v/internal/system"
)

// Key identifies one simulation run by content, not by name: every field
// that can change the result participates. ConfigHash covers the whole
// machine configuration including warmup (config.Config.Hash over the
// effective config); ProfileHash covers the synthetic workload's
// statistical description, so two profiles that share a display name but
// differ in shape never collide. Version is the model version
// (core.ModelVersion) — bumping it invalidates every prior entry when the
// simulator's timing semantics change.
type Key struct {
	ConfigHash  string `json:"config_hash"`
	Workload    string `json:"workload"`
	ProfileHash string `json:"profile_hash"`
	Seed        int64  `json:"seed"`
	Insts       int    `json:"insts"`
	Version     string `json:"version"`
	// Sampling is the canonical-JSON sampled-simulation schedule, or the
	// empty string for a full run. Sampled Reports are estimates, so they
	// must never be served for full-run requests (or vice versa); putting
	// the schedule in the key keeps the two populations disjoint.
	Sampling string `json:"sampling,omitempty"`
}

// ID returns the key's content address: a hex SHA-256 over an unambiguous
// (length-prefix-free, NUL-separated) serialization of the fields. It is
// stable across processes and hosts.
func (k Key) ID() string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\x00%s\x00%s\x00%d\x00%d\x00%s\x00%s",
		k.ConfigHash, k.Workload, k.ProfileHash, k.Seed, k.Insts, k.Version, k.Sampling))
	return hex.EncodeToString(sum[:])
}

// Outcome classifies how a key was served (GetOrRun, Claim).
type Outcome int

const (
	// OutcomeMemoryHit: served from the in-memory LRU tier.
	OutcomeMemoryHit Outcome = iota
	// OutcomeDiskHit: served from the on-disk tier (and promoted).
	OutcomeDiskHit
	// OutcomeMiss: simulated by this request's runner.
	OutcomeMiss
	// OutcomeShared: joined another request's in-flight simulation.
	OutcomeShared
	// OutcomeRemoteHit: fetched from a peer node's cache (remote tier)
	// and persisted locally.
	OutcomeRemoteHit
)

// String names the outcome for responses and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeMemoryHit:
		return "hit"
	case OutcomeDiskHit:
		return "hit-disk"
	case OutcomeMiss:
		return "miss"
	case OutcomeShared:
		return "dedup"
	case OutcomeRemoteHit:
		return "hit-peer"
	}
	return "outcome?"
}

// Options configures a Cache.
type Options struct {
	// Dir is the on-disk tier's directory; "" disables the disk tier
	// (memory-only cache). The directory is created if missing.
	Dir string
	// MaxMemEntries bounds the in-memory LRU tier; <= 0 means 512.
	// Evicted entries remain on disk (when a Dir is set) and re-enter
	// memory on their next access.
	MaxMemEntries int
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// MemoryHits and DiskHits count requests served from each tier.
	MemoryHits, DiskHits uint64
	// PeerHits counts requests served from a peer node via the remote
	// tier (verified, then persisted locally).
	PeerHits uint64
	// Misses counts flights completed with a new simulation.
	Misses uint64
	// Shared counts requests that joined a flight in progress.
	Shared uint64
	// Errors counts runner failures (never cached).
	Errors uint64
	// Corrupt counts disk entries rejected by the integrity checks
	// (partial writes, bit flips, key mismatches) and discarded.
	Corrupt uint64
	// PeerCorrupt counts remote-tier responses rejected by the same
	// integrity checks (checksum, key identity) and treated as misses.
	PeerCorrupt uint64
	// Evictions counts LRU evictions from the memory tier.
	Evictions uint64
	// HitInstructions accumulates the committed instructions of every
	// cache-served report — simulation work avoided, in instructions.
	HitInstructions uint64
}

// Hits returns the total cache-served requests (all tiers + shared).
func (s Stats) Hits() uint64 { return s.MemoryHits + s.DiskHits + s.PeerHits + s.Shared }

// flight is one in-progress run of a key. It belongs to the cache, not to
// the caller that leads it: it runs on a context detached from the
// leader's, and refs counts the callers still waiting for it, leader
// included. The run is cancelled only when the last of them has left.
type flight struct {
	id    string
	key   Key
	start time.Time
	done  chan struct{} // closed by finish

	ctx    context.Context // the run's context
	cancel context.CancelFunc
	stop   func() bool // unwatches the leader's context; nil if it cannot end
	refs   int         // waiters still interested, leader included (c.mu)

	// rep and err are the result, set before done closes. rep is the
	// cache's stored copy and is never mutated: waiters clone it.
	rep system.Report
	err error
}

// memEntry is one LRU node. The key rides along so the entry can be
// re-enveloped for a peer (EntryBytes) without a disk round-trip.
type memEntry struct {
	id  string
	key Key
	rep system.Report
}

// Cache is the two-tier result cache. All methods are safe for concurrent
// use.
type Cache struct {
	dir    string
	maxMem int

	mu      sync.Mutex
	remote  Remote
	mem     map[string]*lruNode
	front   *lruNode // most recently used
	back    *lruNode // least recently used
	n       int
	flights map[string]*flight
	stats   Stats
}

// lruNode is an intrusive doubly-linked LRU list node.
type lruNode struct {
	prev, next *lruNode
	memEntry
}

// New builds a cache, creating the disk directory when one is configured.
func New(o Options) (*Cache, error) {
	if o.MaxMemEntries <= 0 {
		o.MaxMemEntries = 512
	}
	c := &Cache{
		dir:     o.Dir,
		maxMem:  o.MaxMemEntries,
		mem:     make(map[string]*lruNode),
		flights: make(map[string]*flight),
	}
	if o.Dir != "" {
		if err := ensureDir(o.Dir); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// cloneReport detaches the report from cache-internal storage so callers
// can't alias each other through the shared CPUs slice.
func cloneReport(r system.Report) system.Report {
	if r.CPUs != nil {
		cp := make([]system.CPUReport, len(r.CPUs))
		copy(cp, r.CPUs)
		r.CPUs = cp
	}
	return r
}

// ErrAbandoned fails the waiters of a flight whose leader stopped without
// completing it: its run panicked or its goroutine exited.
var ErrAbandoned = errors.New("runcache: run abandoned before completing its flight")

// A Ticket is one key's place in a Claim.
type Ticket struct {
	// Outcome says how the key is served. A hit (OutcomeMemoryHit,
	// OutcomeDiskHit, OutcomeRemoteHit) carries its report in Report.
	// OutcomeShared joined another caller's flight: Wait for it.
	// OutcomeMiss leads a new flight: run it on Context and Complete it.
	Outcome Outcome
	// Report is a hit's report; the caller owns it.
	Report system.Report

	f *flight
}

// Context is the context a led flight (OutcomeMiss) runs on. It outlives
// the leader's own context while other callers wait for the flight, and
// is cancelled once none is left.
func (t *Ticket) Context() context.Context { return t.f.ctx }

// Claim registers the caller on every key and returns one Ticket per key,
// index-aligned. Each key is looked up in the same order: the memory tier,
// then a flight in progress (joined), then the disk tier, then the remote
// tier, and only then a new flight this caller leads. The caller must
// Complete every flight it leads before it Waits for any it joined, so a
// key listed twice collapses into one run: its second ticket joins the
// first one's flight.
func (c *Cache) Claim(ctx context.Context, keys []Key) []Ticket {
	ts := make([]Ticket, len(keys))
	for i, key := range keys {
		ts[i] = c.claim(ctx, key)
	}
	return ts
}

// claim is Claim for one key.
func (c *Cache) claim(ctx context.Context, key Key) Ticket {
	id := key.ID()
	c.mu.Lock()
	if n, ok := c.mem[id]; ok {
		c.moveToFront(n)
		c.stats.MemoryHits++
		c.stats.HitInstructions += n.rep.Committed
		rep := cloneReport(n.rep)
		c.mu.Unlock()
		evMemHit.Inc()
		return Ticket{Outcome: OutcomeMemoryHit, Report: rep}
	}
	if f, ok := c.flights[id]; ok {
		f.refs++
		c.stats.Shared++
		c.mu.Unlock()
		evShared.Inc()
		return Ticket{Outcome: OutcomeShared, f: f}
	}
	f := &flight{id: id, key: key, start: time.Now(), done: make(chan struct{}), refs: 1}
	f.ctx, f.cancel = context.WithCancel(context.WithoutCancel(ctx))
	if ctx.Done() != nil {
		// The leader leaves when its own context ends, as a waiter would.
		f.stop = context.AfterFunc(ctx, func() { c.leave(f) })
	}
	c.flights[id] = f
	c.mu.Unlock()

	if rep, ok := c.loadDisk(id, key); ok {
		c.finish(f, rep, nil, OutcomeDiskHit)
		return Ticket{Outcome: OutcomeDiskHit, Report: rep}
	}
	if rep, ok := c.fetchRemote(ctx, id, key); ok {
		c.finish(f, rep, nil, OutcomeRemoteHit)
		return Ticket{Outcome: OutcomeRemoteHit, Report: rep}
	}
	return Ticket{Outcome: OutcomeMiss, f: f}
}

// Complete finishes a flight the caller leads (an OutcomeMiss ticket). A
// successful report is stored in the memory and disk tiers and handed to
// every waiter; an error is handed to every waiter and never cached, so
// the next request runs again. Completing a finished flight is a no-op,
// which lets a leader defer Complete(t, system.Report{}, ErrAbandoned) as
// a guard against a run that panics.
func (c *Cache) Complete(t *Ticket, rep system.Report, err error) {
	c.finish(t.f, rep, err, OutcomeMiss)
}

// finish completes f with the result of the tier named by outcome. Only
// the flight's leader calls it.
func (c *Cache) finish(f *flight, rep system.Report, err error, outcome Outcome) {
	select {
	case <-f.done:
		return
	default:
	}
	if f.stop != nil {
		f.stop()
	}
	if outcome == OutcomeMiss {
		runSeconds.ObserveSince(f.start)
		if err == nil {
			c.storeDisk(f.id, f.key, rep)
		}
	}
	c.mu.Lock()
	if c.flights[f.id] == f {
		delete(c.flights, f.id)
	}
	if err != nil {
		c.stats.Errors++
		evError.Inc()
	} else {
		f.rep = c.insert(f.id, f.key, rep)
		switch outcome {
		case OutcomeDiskHit:
			c.stats.DiskHits++
			c.stats.HitInstructions += rep.Committed
			evDiskHit.Inc()
		case OutcomeRemoteHit:
			c.stats.PeerHits++
			c.stats.HitInstructions += rep.Committed
			evPeerHit.Inc()
		default:
			c.stats.Misses++
			evMiss.Inc()
		}
	}
	f.err = err
	c.mu.Unlock()
	f.cancel()
	close(f.done)
}

// Wait returns the result of the flight an OutcomeShared ticket joined:
// the leader's report (the caller's own copy) or its error. If ctx ends
// first, the caller leaves the flight and gets ctx.Err(); the run goes on
// for the callers still waiting.
func (c *Cache) Wait(ctx context.Context, t *Ticket) (system.Report, error) {
	f := t.f
	select {
	case <-f.done:
	case <-ctx.Done():
		c.leave(f)
		return system.Report{}, ctx.Err()
	}
	if f.err != nil {
		return system.Report{}, f.err
	}
	c.mu.Lock()
	c.stats.HitInstructions += f.rep.Committed
	c.mu.Unlock()
	return cloneReport(f.rep), nil
}

// leave drops one waiter from an unfinished flight. When the last one —
// leader included — has left, the run is cancelled and the flight leaves
// the table, so the next request for its key leads a fresh run. On a
// finished flight it does nothing that matters.
func (c *Cache) leave(f *flight) {
	c.mu.Lock()
	f.refs--
	last := f.refs == 0
	if last && c.flights[f.id] == f {
		delete(c.flights, f.id)
	}
	c.mu.Unlock()
	if last {
		f.cancel()
	}
}

// GetOrRun is Claim for one key. On a hit it returns the cached report; on
// a flight in progress it waits for it (OutcomeShared); otherwise it runs
// run on the flight's context and completes the flight with the result
// (OutcomeMiss). A leader whose own ctx ends keeps running while other
// callers wait for its flight. Failed runs are never cached — the error
// goes to the leader and every waiter, and the next request runs again.
func (c *Cache) GetOrRun(ctx context.Context, key Key, run func(context.Context) (system.Report, error)) (system.Report, Outcome, error) {
	t := c.claim(ctx, key)
	switch t.Outcome {
	case OutcomeShared:
		rep, err := c.Wait(ctx, &t)
		return rep, OutcomeShared, err
	case OutcomeMiss:
		defer c.Complete(&t, system.Report{}, ErrAbandoned)
		rep, err := run(t.Context())
		c.Complete(&t, rep, err)
		return rep, OutcomeMiss, err
	}
	return t.Report, t.Outcome, nil
}

// ---- memory LRU tier (callers hold c.mu) ----

// insert stores a copy of rep under id and returns the stored copy.
func (c *Cache) insert(id string, key Key, rep system.Report) system.Report {
	rep = cloneReport(rep)
	if n, ok := c.mem[id]; ok {
		n.rep = rep
		c.moveToFront(n)
		return rep
	}
	n := &lruNode{memEntry: memEntry{id: id, key: key, rep: rep}}
	c.mem[id] = n
	c.pushFront(n)
	c.n++
	for c.n > c.maxMem {
		old := c.back
		c.unlink(old)
		delete(c.mem, old.id)
		c.n--
		c.stats.Evictions++
		evEviction.Inc()
	}
	return rep
}

func (c *Cache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.front
	if c.front != nil {
		c.front.prev = n
	}
	c.front = n
	if c.back == nil {
		c.back = n
	}
}

func (c *Cache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.back = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) moveToFront(n *lruNode) {
	if c.front == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
