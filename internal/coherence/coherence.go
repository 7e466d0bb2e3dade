// Package coherence implements the snooping MOESI protocol that keeps the
// per-chip L2 caches of an SMP consistent, together with the timing of the
// transfers it causes: snoop broadcasts on the system bus, cache-to-cache
// ("move-out") transfers between L2s, invalidations, and memory reads and
// writebacks.
//
// The paper's MP studies (TPC-C 16P in Figures 14/15) depend on exactly
// this machinery: "requests between L2 caches can be modeled for MP system
// performance models", and the two-level cache-hierarchy decision (section
// 3.3) is argued partly from the cost of move-out requests from other CPUs.
package coherence

import (
	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/mem"
)

// ChipCache is the controller's view of one chip's cache hierarchy: the L2
// state plus the ability to back-invalidate (which the chip must propagate
// into its L1s to preserve inclusion).
type ChipCache interface {
	// Probe returns the L2 state of the line containing addr.
	Probe(addr uint64) cache.State
	// Downgrade sets the L2 line state after a snoop hit (no data motion
	// here; timing is the controller's business).
	Downgrade(addr uint64, st cache.State)
	// InvalidateLine removes the line from L2 and the L1s.
	InvalidateLine(addr uint64)
}

// Stats counts protocol activity.
type Stats struct {
	// MemoryReads counts line fetches served by DRAM.
	MemoryReads uint64
	// CacheTransfers counts lines supplied by another chip's L2 (move-out).
	CacheTransfers uint64
	// Invalidations counts lines invalidated in remote chips.
	Invalidations uint64
	// Upgrades counts write-permission upgrades of Shared lines.
	Upgrades uint64
	// Writebacks counts dirty castouts written to memory.
	Writebacks uint64
}

// Controller is the snoop-bus protocol engine shared by all chips.
type Controller struct {
	chips  []ChipCache
	bus    *mem.Bus
	dram   *mem.DRAM
	p      config.MemParams
	timing bool // Fidelity.CoherenceTiming

	// Injected-fault state, sampled at construction (see fault.go).
	fault     Fault
	dropCount uint64

	// Stats is exported for reporting.
	Stats Stats
}

// NewController builds the engine. chips may be populated later via
// AttachChip (the chips need the controller to construct themselves).
func NewController(p config.MemParams, bus *mem.Bus, dram *mem.DRAM, coherenceTiming bool) *Controller {
	return &Controller{bus: bus, dram: dram, p: p, timing: coherenceTiming,
		fault: injected}
}

// AttachChip registers a chip and returns its identifier.
func (c *Controller) AttachChip(ch ChipCache) int {
	c.chips = append(c.chips, ch)
	return len(c.chips) - 1
}

// lineBytes returns the coherence granule size.
func (c *Controller) lineBytes() uint64 { return uint64(c.p.L2.LineBytes) }

// FetchLine services an L2 miss by chip req for the line containing addr.
// exclusive requests write permission (store miss). It returns the cycle
// the line arrives at the requesting L2 and the MOESI state to install.
func (c *Controller) FetchLine(req int, addr uint64, exclusive bool, cycle uint64) (uint64, cache.State) {
	granted := c.bus.Request(cycle) // snoop broadcast
	var supplier ChipCache
	supplierState := cache.Invalid
	sharers := 0
	for i, ch := range c.chips {
		if i == req {
			continue
		}
		st := ch.Probe(addr)
		if st == cache.Invalid {
			continue
		}
		sharers++
		if st.Dirty() || st == cache.Exclusive {
			supplier = ch
			supplierState = st
		}
	}

	var ready uint64
	if supplier != nil {
		// Cache-to-cache transfer (move-out from the owning chip).
		c.Stats.CacheTransfers++
		c2c := uint64(c.p.CacheToCacheCycles)
		if !c.timing {
			c2c = c.dram.Latency() // low-fidelity: costed like memory
		}
		ready = c.bus.Transfer(granted+c2c, c.lineBytes())
	} else {
		c.Stats.MemoryReads++
		data := c.dram.Access(granted, addr>>6)
		ready = c.bus.Transfer(data, c.lineBytes())
	}

	if exclusive {
		// Invalidate every other copy; a dirty owner has supplied the data
		// and transfers ownership with it.
		for i, ch := range c.chips {
			if i == req {
				continue
			}
			if ch.Probe(addr) != cache.Invalid {
				if c.dropInvalidate() {
					continue
				}
				ch.InvalidateLine(addr)
				c.Stats.Invalidations++
			}
		}
		return ready, cache.Modified
	}

	// Read: downgrade the supplier, pick the requestor's state.
	if supplier != nil {
		switch supplierState {
		case cache.Modified:
			supplier.Downgrade(addr, cache.Owned)
		case cache.Exclusive:
			supplier.Downgrade(addr, cache.Shared)
		}
		return ready, cache.Shared
	}
	if sharers > 0 {
		return ready, cache.Shared
	}
	return ready, cache.Exclusive
}

// Upgrade obtains write permission for a line chip req already holds in a
// readable state: a snoop invalidation of all other copies. It returns the
// cycle permission is granted.
func (c *Controller) Upgrade(req int, addr uint64, cycle uint64) uint64 {
	c.Stats.Upgrades++
	granted := c.bus.Request(cycle)
	for i, ch := range c.chips {
		if i == req {
			continue
		}
		if ch.Probe(addr) != cache.Invalid {
			if c.dropInvalidate() {
				continue
			}
			ch.InvalidateLine(addr)
			c.Stats.Invalidations++
		}
	}
	return granted
}

// Writeback casts a dirty line out to memory. Fire-and-forget: the
// requesting chip does not wait, but the bus and memory bank occupancy are
// consumed, which is how castout traffic degrades loaded systems.
func (c *Controller) Writeback(addr uint64, cycle uint64) {
	c.Stats.Writebacks++
	granted := c.bus.Request(cycle)
	done := c.bus.Transfer(granted, c.lineBytes())
	c.dram.Access(done, addr>>6)
}

// CheckCoherence validates the single-writer/multi-reader invariant for a
// line across all chips (tests and debug): at most one chip in
// M/E, and if any chip is M or E no other chip holds the line; at most one
// Owner.
func (c *Controller) CheckCoherence(addr uint64) bool {
	owners, exclusives, holders := 0, 0, 0
	for _, ch := range c.chips {
		switch ch.Probe(addr) {
		case cache.Modified, cache.Exclusive:
			exclusives++
			holders++
		case cache.Owned:
			owners++
			holders++
		case cache.Shared:
			holders++
		}
	}
	if exclusives > 1 || owners > 1 {
		return false
	}
	if exclusives == 1 && holders > 1 {
		return false
	}
	return true
}
