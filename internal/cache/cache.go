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
	// Tag is the line address (addr >> lineShift) — the full line number,
	// not just the tag bits, which keeps back-probes trivial.
	Tag uint64
	// State is the coherence state; Invalid lines are free.
	State State
	// Prefetched marks lines brought in by the hardware prefetcher and not
	// yet demanded (for the Figure 17 pollution accounting).
	Prefetched bool
	lru        uint64
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

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	sets      [][]Line
	setMask   uint64
	lineShift uint
	tick      uint64
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
	shift := uint(0)
	for 1<<shift < geo.LineBytes {
		shift++
	}
	nsets := geo.Sets()
	sets := make([][]Line, nsets)
	backing := make([]Line, nsets*geo.Ways)
	for i := range sets {
		sets[i], backing = backing[:geo.Ways:geo.Ways], backing[geo.Ways:]
	}
	return &Cache{sets: sets,
		setMask: faultedSetMask(uint64(nsets - 1)), lineShift: shift}
}

// LineAddr returns the line number containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.lineShift }

func (c *Cache) set(lineAddr uint64) []Line { return c.sets[lineAddr&c.setMask] }

// Lookup finds the line containing addr without recording statistics.
// It returns nil when absent. The LRU stamp is refreshed when touch is set.
func (c *Cache) Lookup(addr uint64, touch bool) *Line {
	lineAddr := c.LineAddr(addr)
	set := c.set(lineAddr)
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Tag == lineAddr {
			if touch {
				c.tick++
				l.lru = c.tick
			}
			return l
		}
	}
	return nil
}

// Access performs a demand lookup with statistics. It returns the line on
// a hit and nil on a miss. Prefetched lines are promoted to demanded.
func (c *Cache) Access(addr uint64) *Line {
	c.Stats.DemandAccesses++
	l := c.Lookup(addr, true)
	if l == nil {
		c.Stats.DemandMisses++
		return nil
	}
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
	if c.Lookup(addr, false) != nil {
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
	set := c.set(lineAddr)
	victim := -1
	for i := range set {
		l := &set[i]
		if l.State != Invalid && l.Tag == lineAddr {
			l.State = st
			if !prefetched {
				l.Prefetched = false
			}
			return Eviction{}, false
		}
		if l.State == Invalid && victim < 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = c.pickVictim(set)
		v := &set[victim]
		ev = Eviction{LineAddr: v.Tag, State: v.State, Prefetched: v.Prefetched}
		evicted = true
		if v.State.Dirty() {
			c.Stats.Writebacks++
		}
		if v.Prefetched {
			c.Stats.PrefetchedEvictedUnused++
		}
	}
	c.tick++
	set[victim] = Line{Tag: lineAddr, State: st, Prefetched: prefetched, lru: c.tick}
	return ev, evicted
}

// pickVictim selects the LRU way, preferring ways the VictimFilter does
// not protect.
func (c *Cache) pickVictim(set []Line) int {
	victim, protected := -1, -1
	for i := range set {
		if c.VictimFilter != nil && c.VictimFilter(set[i].Tag) {
			if protected < 0 || set[i].lru < set[protected].lru {
				protected = i
			}
			continue
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if victim < 0 {
		return protected // every way protected: fall back to LRU
	}
	return victim
}

// Invalidate removes the line containing addr, returning its former state
// (Invalid when it was absent). Used for snoop invalidations and L1
// back-invalidation on L2 eviction.
func (c *Cache) Invalidate(addr uint64) State {
	l := c.Lookup(addr, false)
	if l == nil {
		return Invalid
	}
	st := l.State
	l.State = Invalid
	return st
}

// SetState downgrades/upgrades the line containing addr (snoop responses).
// It is a no-op when the line is absent.
func (c *Cache) SetState(addr uint64, st State) {
	if l := c.Lookup(addr, false); l != nil {
		l.State = st
	}
}

// CheckInvariants verifies structural invariants (tests): no duplicate tags
// within a set, all valid tags map to their set.
func (c *Cache) CheckInvariants() error {
	for si, set := range c.sets {
		seen := map[uint64]bool{}
		for i := range set {
			l := &set[i]
			if l.State == Invalid {
				continue
			}
			if seen[l.Tag] {
				return fmt.Errorf("cache: duplicate tag %#x in set %d", l.Tag, si)
			}
			seen[l.Tag] = true
			if l.Tag&c.setMask != uint64(si) {
				return fmt.Errorf("cache: tag %#x in wrong set %d", l.Tag, si)
			}
		}
	}
	return nil
}
