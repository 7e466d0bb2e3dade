// Package tlb models the SPARC64 V instruction and data translation
// lookaside buffers. The timing model needs only hit/miss behavior and the
// refill penalty: SPARC-V9 TLB refills are software traps, so a miss
// serializes the access and costs a fixed penalty.
//
// The model keys translations on virtual page number alone (the simulator
// never forms physical addresses; caches are indexed with the virtual
// address, which is harmless for timing because the synthetic address
// spaces are disjoint where they should be).
package tlb

import (
	"fmt"

	"sparc64v/internal/config"
)

type entry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

// TLB is a translation buffer with LRU replacement within each set,
// matching the reach/penalty parameters in config.TLBGeometry. Small TLBs
// (≤16 entries) are fully associative; larger ones are organized as 8-way
// sets so that lookups stay O(ways) on the simulator's hot path.
type TLB struct {
	sets      [][]entry
	setMask   uint64
	pageShift uint
	penalty   int
	tick      uint64
	// Stats
	Accesses uint64
	Misses   uint64
}

// New builds a TLB from its geometry.
func New(g config.TLBGeometry) *TLB {
	if g.Entries < 1 || g.PageBytes < 1 || g.PageBytes&(g.PageBytes-1) != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %+v", g))
	}
	shift := uint(0)
	for 1<<shift < g.PageBytes {
		shift++
	}
	ways := 8
	if g.Entries <= 16 {
		ways = g.Entries
	}
	nsets := g.Entries / ways
	if nsets < 1 {
		nsets = 1
	}
	// Round the set count down to a power of two for masking.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	sets := make([][]entry, nsets)
	backing := make([]entry, nsets*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return &TLB{
		sets:      sets,
		setMask:   uint64(nsets - 1),
		pageShift: shift,
		penalty:   g.MissPenalty,
	}
}

// Access translates addr, returning the extra latency this access pays
// (0 on a hit, the refill penalty on a miss). The missing translation is
// installed.
func (t *TLB) Access(addr uint64) int {
	t.Accesses++
	vpn := addr >> t.pageShift
	set := t.sets[vpn&t.setMask]
	t.tick++
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.tick
			return 0
		}
		if !set[victim].valid {
			continue
		}
		if !e.valid || e.lru < set[victim].lru {
			victim = i
		}
	}
	t.Misses++
	set[victim] = entry{vpn: vpn, valid: true, lru: t.tick}
	return t.penalty
}
