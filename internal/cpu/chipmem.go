package cpu

import (
	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/mem"
	"sparc64v/internal/tlb"
)

// SystemPort is the chip's window onto the rest of the system: everything
// beyond the on-chip (or off-chip private) L2. The coherence.Controller
// satisfies it; unit tests use fixed-latency fakes.
type SystemPort interface {
	// FetchLine obtains the line containing addr after an L2 miss,
	// exclusive for stores. It returns the cycle the line reaches the L2
	// and the MOESI state to install.
	FetchLine(chip int, addr uint64, exclusive bool, cycle uint64) (uint64, cache.State)
	// Upgrade obtains write permission for a line already held shared.
	Upgrade(chip int, addr uint64, cycle uint64) uint64
	// Writeback casts a dirty L2 victim out to memory.
	Writeback(addr uint64, cycle uint64)
}

// ChipMem is a processor chip's memory hierarchy: split L1s, the unified
// L2 (the SX-unit of the paper's block diagram), TLBs, MSHRs and the L2
// hardware prefetcher. It computes completion cycles using timestamped
// resources and keeps all cache/coherence state up to date at request time.
type ChipMem struct {
	cfg  *config.Config
	id   int
	port SystemPort

	L1I, L1D, L2 *cache.Cache
	ITLB, DTLB   *tlb.TLB
	l1iMSHR      *cache.MSHRs
	l1dMSHR      *cache.MSHRs
	l2MSHR       *cache.MSHRs
	pf           *cache.Prefetcher
	l2Port       mem.Resource

	// Observer, when non-nil, is notified of snoop invalidations hitting
	// this chip (see MemObserver). Set before the first Tick.
	Observer MemObserver

	// Stats
	TLBStallCycles uint64
}

// NewChipMem builds the hierarchy for chip id.
func NewChipMem(cfg *config.Config, id int, port SystemPort) *ChipMem {
	m := &ChipMem{
		cfg:     cfg,
		id:      id,
		port:    port,
		L1I:     cache.New(cfg.L1I),
		L1D:     cache.New(cfg.L1D),
		L2:      cache.New(cfg.Mem.L2),
		ITLB:    tlb.New(cfg.ITLB),
		DTLB:    tlb.New(cfg.DTLB),
		l1iMSHR: cache.NewMSHRs(cfg.L1I.MSHRs),
		l1dMSHR: cache.NewMSHRs(cfg.L1D.MSHRs),
		l2MSHR:  cache.NewMSHRs(cfg.Mem.L2.MSHRs),
	}
	if cfg.Mem.Prefetch {
		m.pf = cache.NewPrefetcher(cfg.Mem.PrefetchDegree, cfg.Mem.PrefetchStride,
			cfg.Mem.PrefetchTableEntries)
	}
	// Inclusion-aware victim selection: protect L2 lines with L1 copies
	// (presence bits), so streaming L2 traffic does not back-invalidate the
	// hot L1 working sets.
	shift := m.L2.LineShift()
	m.L2.VictimFilter = func(lineAddr uint64) bool {
		addr := lineAddr << shift
		return m.L1D.Lookup(addr) != nil || m.L1I.Lookup(addr) != nil
	}
	return m
}

// l2Latency returns the L2 access latency including the chip-crossing
// penalty for off-chip designs (the Figure 14 "off.*" alternatives).
func (m *ChipMem) l2Latency() uint64 {
	lat := uint64(m.cfg.Mem.L2.HitCycles)
	if m.cfg.Mem.L2OffChip {
		lat += uint64(m.cfg.Mem.OffChipPenalty)
	}
	return lat
}

// l2Acquire models L2 port occupancy (only under bus-contention fidelity).
func (m *ChipMem) l2Acquire(cycle uint64) uint64 {
	return m.l2Port.Acquire(cycle, 2, m.cfg.Fidelity.BusContention)
}

// missDetect is the tag-check delay between an L1 access and the L2
// request leaving the core.
const missDetect = 2

// DataResult is the outcome of a data-side access.
type DataResult struct {
	// Ready is the cycle the data (load) or write permission (store) is
	// available.
	Ready uint64
	// L1Hit reports an L1 operand cache hit.
	L1Hit bool
	// Retry means no MSHR was available: the LSQ must re-issue later.
	Retry bool
}

// AccessData performs a load or store lookup at cycle. Stores obtain
// write permission (upgrade or exclusive fetch); loads obtain data.
func (m *ChipMem) AccessData(addr uint64, store bool, cycle uint64) DataResult {
	if m.cfg.Fidelity.TLBModeled && !m.cfg.Perfect.TLB {
		if pen := m.DTLB.Access(addr); pen > 0 {
			m.TLBStallCycles += uint64(pen)
			cycle += uint64(pen)
		}
	}
	hitReady := cycle + uint64(m.cfg.L1D.HitCycles)
	if m.cfg.Perfect.L1 {
		return DataResult{Ready: hitReady, L1Hit: true}
	}
	line := m.L1D.Access(addr)
	if line != nil {
		if store {
			if !line.State.Writable() && m.cfg.CPUs > 1 {
				// Upgrade: obtain write permission. The store buffer hides
				// the latency; the bus traffic still costs (MP
				// invalidations).
				m.port.Upgrade(m.id, addr, cycle)
			}
			line.State = cache.Modified
			m.L2.SetState(addr, cache.Modified)
		}
		// A hit on a line whose fill is still in flight delivers when the
		// fill lands (secondary access merged onto the outstanding miss).
		if pend, ok := m.l1dMSHR.Pending(m.L1D.LineAddr(addr), cycle); ok && pend > hitReady {
			return DataResult{Ready: pend, L1Hit: true}
		}
		return DataResult{Ready: hitReady, L1Hit: true}
	}

	// L1 miss.
	lineAddr := m.L1D.LineAddr(addr)
	if ready, ok := m.l1dMSHR.Pending(lineAddr, cycle); ok {
		r := ready
		if store {
			// The pending fill may not carry write permission; charge the
			// upgrade on arrival (state handled below).
			m.storeTouch(addr, r)
		}
		if hitReady > r {
			r = hitReady
		}
		return DataResult{Ready: r, L1Hit: false}
	}
	if !m.l1dMSHR.CanAllocate(cycle) {
		return DataResult{Retry: true}
	}
	fill := m.fetchIntoL1(addr, store, cycle+missDetect, m.L1D)
	if fill == 0 {
		return DataResult{Retry: true}
	}
	m.l1dMSHR.Allocate(lineAddr, fill, cycle)
	if store {
		m.storeTouch(addr, fill)
	}
	return DataResult{Ready: fill, L1Hit: false}
}

// storeTouch marks the (just filled or filling) line modified.
func (m *ChipMem) storeTouch(addr uint64, _ uint64) {
	if l := m.L1D.Lookup(addr); l != nil {
		l.State = cache.Modified
	}
	m.L2.SetState(addr, cache.Modified)
}

// InstrResult is the outcome of an instruction-side access.
type InstrResult struct {
	// Ready is the cycle the fetch block is available (== cycle on a hit;
	// the pipelined access latency is part of the fetch pipeline depth).
	Ready uint64
	// L1Hit reports an L1 instruction cache hit.
	L1Hit bool
}

// AccessInstr performs an instruction-fetch lookup for the line containing
// pc.
func (m *ChipMem) AccessInstr(pc uint64, cycle uint64) InstrResult {
	if m.cfg.Fidelity.TLBModeled && !m.cfg.Perfect.TLB {
		if pen := m.ITLB.Access(pc); pen > 0 {
			m.TLBStallCycles += uint64(pen)
			cycle += uint64(pen)
		}
	}
	if m.cfg.Perfect.L1 {
		return InstrResult{Ready: cycle, L1Hit: true}
	}
	if m.L1I.Access(pc) != nil {
		if pend, ok := m.l1iMSHR.Pending(m.L1I.LineAddr(pc), cycle); ok {
			return InstrResult{Ready: pend, L1Hit: false}
		}
		return InstrResult{Ready: cycle, L1Hit: true}
	}
	lineAddr := m.L1I.LineAddr(pc)
	if ready, ok := m.l1iMSHR.Pending(lineAddr, cycle); ok {
		return InstrResult{Ready: ready, L1Hit: false}
	}
	if !m.l1iMSHR.CanAllocate(cycle) {
		// MSHR pressure on the I-side: back off and re-probe; no memory
		// traffic may be billed for a refused miss.
		return InstrResult{Ready: cycle + missDetect, L1Hit: false}
	}
	fill := m.fetchIntoL1(pc, false, cycle+missDetect, m.L1I)
	if fill == 0 {
		return InstrResult{Ready: cycle + missDetect, L1Hit: false}
	}
	m.l1iMSHR.Allocate(lineAddr, fill, cycle)
	return InstrResult{Ready: fill, L1Hit: false}
}

// fetchIntoL1 services an L1 miss from the L2 (and below), installing
// states along the way. It returns the cycle the L1 fill completes, or 0
// when an L2 MSHR is unavailable (caller must retry).
func (m *ChipMem) fetchIntoL1(addr uint64, store bool, cycle uint64, l1 *cache.Cache) uint64 {
	// Hardware prefetch triggers on demand L1 misses (section 3.4).
	if m.pf != nil && !m.cfg.Perfect.L2 {
		m.prefetch(m.L2.LineAddr(addr), cycle)
	}

	if m.cfg.Fidelity.FlatMemory {
		ready := cycle + uint64(m.cfg.Fidelity.FlatMemoryCycles)
		m.fillL1(l1, addr, store, ready)
		return ready
	}

	t := m.l2Acquire(cycle)
	var ready uint64
	if m.cfg.Perfect.L2 {
		ready = t + m.l2Latency()
		m.fillL1(l1, addr, store, ready)
		return ready
	}

	l2line := m.L2.Access(addr)
	// A hit on a line whose fill is still in flight (demand on a prefetch,
	// or a second miss to the same line) delivers when the fill lands.
	pendingReady := uint64(0)
	if l2line != nil {
		if pend, ok := m.l2MSHR.Pending(m.L2.LineAddr(addr), t); ok {
			pendingReady = pend
		}
	}
	switch {
	case l2line != nil && store && !l2line.State.Writable():
		if m.cfg.CPUs > 1 {
			m.port.Upgrade(m.id, addr, t)
		}
		l2line.State = cache.Modified
		ready = t + m.l2Latency()
		if pendingReady > ready {
			ready = pendingReady
		}
	case l2line != nil:
		ready = t + m.l2Latency()
		if pendingReady > ready {
			ready = pendingReady
		}
	default:
		lineAddr := m.L2.LineAddr(addr)
		if pend, ok := m.l2MSHR.Pending(lineAddr, t); ok {
			ready = pend
		} else {
			if !m.l2MSHR.CanAllocate(t) {
				return 0
			}
			arrive, st := m.port.FetchLine(m.id, addr, store, t)
			if m.cfg.Mem.L2OffChip {
				arrive += uint64(m.cfg.Mem.OffChipPenalty)
			}
			m.l2MSHR.Allocate(lineAddr, arrive, t)
			m.fillL2(addr, st, false, t)
			ready = arrive
		}
		ready += uint64(m.cfg.L1D.HitCycles) // L2->L1 transfer
	}
	m.fillL1(l1, addr, store, ready)
	return ready
}

// fillL1 installs the line in an L1, handling dirty castout to the L2.
func (m *ChipMem) fillL1(l1 *cache.Cache, addr uint64, store bool, _ uint64) {
	st := cache.Exclusive
	if store {
		st = cache.Modified
	} else if l2 := m.L2.Lookup(addr); l2 != nil && l2.State == cache.Shared {
		st = cache.Shared
	}
	ev, evicted := l1.Fill(addr, st, false)
	if evicted && ev.State.Dirty() {
		// Copy-back into the L2 (inclusion guarantees presence).
		m.L2.SetState(ev.Addr(l1.LineShift()), cache.Modified)
	}
}

// fillL2 installs a line in the L2, handling victim writeback and L1
// back-invalidation (inclusion).
func (m *ChipMem) fillL2(addr uint64, st cache.State, prefetched bool, cycle uint64) {
	ev, evicted := m.L2.Fill(addr, st, prefetched)
	if !evicted {
		return
	}
	vaddr := ev.Addr(m.L2.LineShift())
	// Inclusion: remove the victim from the L1s; a dirty L1 copy folds
	// into the writeback.
	if m.L1D.Invalidate(vaddr).Dirty() {
		ev.State = cache.Modified
	}
	m.L1I.Invalidate(vaddr)
	if ev.State.Dirty() && !m.cfg.Fidelity.FlatMemory {
		m.port.Writeback(vaddr, cycle)
	}
}

// prefetch issues prefetches for a demand-missed line into the L2.
func (m *ChipMem) prefetch(lineAddr uint64, cycle uint64) {
	for _, pfLine := range m.pf.OnMiss(lineAddr) {
		addr := pfLine << m.L2.LineShift()
		if m.L2.AccessPrefetch(addr) {
			continue
		}
		if m.cfg.Fidelity.FlatMemory {
			m.fillL2(addr, cache.Exclusive, true, cycle)
			continue
		}
		if _, ok := m.l2MSHR.Pending(pfLine, cycle); ok {
			continue
		}
		if !m.l2MSHR.CanAllocate(cycle) {
			continue // never bill traffic for a refused prefetch
		}
		arrive, st := m.port.FetchLine(m.id, addr, false, cycle)
		m.l2MSHR.Allocate(pfLine, arrive, cycle)
		m.fillL2(addr, st, true, cycle)
	}
}

// ---- coherence.ChipCache implementation (snoops from other chips).

// Probe returns the L2 state of the line containing addr.
func (m *ChipMem) Probe(addr uint64) cache.State {
	if l := m.L2.Lookup(addr); l != nil {
		return l.State
	}
	return cache.Invalid
}

// Downgrade adjusts L2 (and L1) state after supplying data to a snooper.
func (m *ChipMem) Downgrade(addr uint64, st cache.State) {
	m.L2.SetState(addr, st)
	m.L1D.SetState(addr, cache.Shared)
	m.L1I.SetState(addr, cache.Shared)
}

// InvalidateLine removes the line everywhere on the chip.
func (m *ChipMem) InvalidateLine(addr uint64) {
	if m.Observer != nil {
		m.Observer.LineInvalidated(m.id, addr)
	}
	m.L2.Invalidate(addr)
	m.L1D.Invalidate(addr)
	m.L1I.Invalidate(addr)
}
