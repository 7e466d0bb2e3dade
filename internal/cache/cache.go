// Package cache implements the cache structures of the SPARC64 V
// performance model: set-associative LRU caches whose lines carry MOESI
// coherence states, miss-status holding registers for non-blocking
// operation, the 8x4-byte banking of the L1 operand cache, and the L2
// hardware prefetcher.
//
// The package provides mechanisms only; the memory-path policy (who probes
// whom, when lines move) lives in the core model and the coherence package.
package cache

import (
	"fmt"
	"math/bits"

	"sparc64v/internal/assoc"
	"sparc64v/internal/config"
)

// State is a MOESI coherence state. Uniprocessor runs use only I/E/M (plus
// S for clean lines below a shared point); the SMP snoop protocol uses all
// five.
type State uint8

// MOESI states.
const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: clean, possibly present in other caches.
	Shared
	// Exclusive: clean, guaranteed the only copy.
	Exclusive
	// Owned: dirty, possibly present (Shared) in other caches; this cache
	// must supply data and write back on eviction.
	Owned
	// Modified: dirty, guaranteed the only copy.
	Modified
)

// Dirty reports whether the state requires a writeback on eviction.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Writable reports whether a store may proceed without an upgrade.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache line's bookkeeping.
type Line struct {
	// State is the coherence state; a present line is never Invalid.
	State State
	// Prefetched marks lines brought in by the hardware prefetcher and not
	// yet demanded (for the Figure 17 pollution accounting).
	Prefetched bool
}

// Stats counts cache activity, split demand vs prefetch as the Figure 17
// methodology requires.
type Stats struct {
	// DemandAccesses and DemandMisses count requests from the workload.
	DemandAccesses, DemandMisses uint64
	// PrefetchAccesses and PrefetchMisses count prefetcher requests.
	PrefetchAccesses, PrefetchMisses uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
	// PrefetchedUseful counts prefetched lines that were later demanded.
	PrefetchedUseful uint64
	// PrefetchedEvictedUnused counts prefetched lines evicted untouched.
	PrefetchedEvictedUnused uint64
}

// Cache is a set-associative cache with true-LRU replacement. Lines are
// tagged with their full line number (addr >> lineShift), not just the tag
// bits, which keeps back-probes trivial.
type Cache struct {
	tags assoc.Table
	// lines holds each way's bookkeeping, under the way's index in tags.
	lines     []Line
	setMask   uint64
	lineShift uint
	// VictimFilter, when set, is consulted during eviction: lines for
	// which it returns true are avoided if any other way is evictable.
	// An inclusive L2 uses it to protect lines with L1 copies (presence
	// bits), preventing inclusion-victim thrash of the hot L1 working set.
	VictimFilter func(lineAddr uint64) bool
	// Stats is exported for the reporting layer.
	Stats Stats
}

// New builds a cache with the given geometry.
func New(geo config.CacheGeometry) *Cache {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	nsets := geo.Sets()
	return &Cache{tags: assoc.New(nsets, geo.Ways),
		lines:     make([]Line, nsets*geo.Ways),
		setMask:   faultedSetMask(uint64(nsets - 1)),
		lineShift: uint(bits.TrailingZeros(uint(geo.LineBytes)))}
}

// LineAddr returns the line number containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.lineShift }

// way returns the index of the way holding the line containing addr, or
// -1 when it is absent.
func (c *Cache) way(addr uint64) int {
	lineAddr := addr >> c.lineShift
	return c.tags.Lookup(lineAddr&c.setMask, lineAddr)
}

// Lookup finds the line containing addr without recording statistics or
// changing the LRU order. It returns nil when absent.
func (c *Cache) Lookup(addr uint64) *Line {
	if i := c.way(addr); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Access performs a demand lookup with statistics, making a hit line the
// most recently used. It returns the line on a hit and nil on a miss.
// Prefetched lines are promoted to demanded.
func (c *Cache) Access(addr uint64) *Line {
	c.Stats.DemandAccesses++
	i := c.way(addr)
	if i < 0 {
		c.Stats.DemandMisses++
		return nil
	}
	c.tags.Touch(i)
	l := &c.lines[i]
	if l.Prefetched {
		l.Prefetched = false
		c.Stats.PrefetchedUseful++
	}
	return l
}

// AccessPrefetch performs a prefetcher lookup with statistics: it reports
// whether the line is already present (no fetch needed).
func (c *Cache) AccessPrefetch(addr uint64) bool {
	c.Stats.PrefetchAccesses++
	if c.way(addr) >= 0 {
		return true
	}
	c.Stats.PrefetchMisses++
	return false
}

// Eviction describes a line displaced by Fill.
type Eviction struct {
	// LineAddr is the displaced line number; Addr reconstructs a byte
	// address inside it.
	LineAddr uint64
	// State is the displaced line's coherence state (Dirty() means the
	// caller must issue a writeback).
	State State
	// Prefetched reports the displaced line was an unused prefetch.
	Prefetched bool
}

// Addr returns the base byte address of the evicted line.
func (e *Eviction) Addr(lineShift uint) uint64 { return e.LineAddr << lineShift }

// Fill installs the line containing addr in the given state, evicting the
// LRU way if the set is full. It returns the eviction, if any. Filling a
// line that is already present just updates its state.
func (c *Cache) Fill(addr uint64, st State, prefetched bool) (ev Eviction, evicted bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	lineAddr := c.LineAddr(addr)
	i, present, victim, evicted := c.tags.Insert(lineAddr&c.setMask, lineAddr, c.VictimFilter)
	l := &c.lines[i]
	if present {
		l.State, l.Prefetched = st, l.Prefetched && prefetched
		return Eviction{}, false
	}
	if evicted {
		ev = Eviction{LineAddr: victim, State: l.State, Prefetched: l.Prefetched}
		if l.State.Dirty() {
			c.Stats.Writebacks++
		}
		if l.Prefetched {
			c.Stats.PrefetchedEvictedUnused++
		}
	}
	*l = Line{State: st, Prefetched: prefetched}
	return ev, evicted
}

// Invalidate removes the line containing addr, returning its former state
// (Invalid when it was absent). Used for snoop invalidations and L1
// back-invalidation on L2 eviction.
func (c *Cache) Invalidate(addr uint64) State {
	lineAddr := c.LineAddr(addr)
	i, ok := c.tags.Remove(lineAddr&c.setMask, lineAddr)
	if !ok {
		return Invalid
	}
	return c.lines[i].State
}

// SetState downgrades/upgrades the line containing addr (snoop responses).
// It is a no-op when the line is absent. st is never Invalid: Invalidate
// removes a line.
func (c *Cache) SetState(addr uint64, st State) {
	if l := c.Lookup(addr); l != nil {
		l.State = st
	}
}

// CheckInvariants verifies structural invariants (tests): every present
// line has a valid state and maps to its set, and no tag repeats.
func (c *Cache) CheckInvariants() (err error) {
	seen := map[uint64]bool{}
	c.tags.Each(func(set, tag uint64, i int) {
		l := &c.lines[i]
		switch {
		case err != nil:
		case l.State == Invalid:
			err = fmt.Errorf("cache: tag %#x in set %d present but Invalid", tag, set)
		case seen[tag]:
			err = fmt.Errorf("cache: duplicate tag %#x in set %d", tag, set)
		case tag&c.setMask != set:
			err = fmt.Errorf("cache: tag %#x in wrong set %d", tag, set)
		}
		seen[tag] = true
	})
	return err
}
