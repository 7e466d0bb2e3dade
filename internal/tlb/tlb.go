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
	"math/bits"

	"sparc64v/internal/assoc"
	"sparc64v/internal/config"
)

// TLB is a translation buffer with LRU replacement within each set,
// matching the reach/penalty parameters in config.TLBGeometry. Small TLBs
// (≤16 entries) are fully associative; larger ones are organized as 8-way
// sets so that lookups stay O(ways) on the simulator's hot path. The
// virtual page number is the tag; a way holds nothing else.
type TLB struct {
	pages     assoc.Table
	setMask   uint64
	pageShift uint
	penalty   int
	// Stats
	Accesses uint64
	Misses   uint64
}

// New builds a TLB from its geometry.
func New(g config.TLBGeometry) *TLB {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	ways := 8
	if g.Entries <= 16 {
		ways = g.Entries
	}
	nsets := g.Entries / ways
	return &TLB{
		pages:     assoc.New(nsets, ways),
		setMask:   uint64(nsets - 1),
		pageShift: uint(bits.TrailingZeros(uint(g.PageBytes))),
		penalty:   g.MissPenalty,
	}
}

// Access translates addr, returning the extra latency this access pays
// (0 on a hit, the refill penalty on a miss). The missing translation is
// installed.
func (t *TLB) Access(addr uint64) int {
	t.Accesses++
	vpn := addr >> t.pageShift
	set := vpn & t.setMask
	if i := t.pages.Lookup(set, vpn); i >= 0 {
		t.pages.Touch(i)
		return 0
	}
	t.Misses++
	t.pages.Insert(set, vpn, nil)
	return t.penalty
}
