package cpu

// Functional fast-forward execution (the sampled-simulation "atomic" mode).
//
// FastForward retires one trace record per Step with no notion of cycles:
// no window, no reservation stations, no MSHRs, no port occupancy. It only
// performs the state updates that carry history across a fast-forward gap —
// cache contents and MOESI states (with inclusion and prefetcher training),
// TLB contents, and BHT/RAS training — so that when the detailed model
// resumes, it resumes against a warm machine rather than a cold one.
//
// Deliberate approximations, documented in DESIGN.md:
//   - No timing state is touched: MSHRs, bus/DRAM occupancy and the
//     coherence controller's transfer timing are left alone. Counters the
//     warm path shares with the detailed path (cache/TLB/predictor stats)
//     do advance, which is why the sampling driver measures with snapshot
//     deltas rather than absolute counter values.
//   - MP coherence traffic between chips is not generated during
//     fast-forward: each chip warms its own hierarchy from its own trace.
//     The detailed warm-up window re-establishes cross-chip states before
//     anything is measured.

import (
	"sparc64v/internal/bpred"
	"sparc64v/internal/cache"
	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

// FastForward functionally executes a CPU's trace records against the
// chip's memory hierarchy and branch predictor.
type FastForward struct {
	mem           *ChipMem
	pred          *bpred.Predictor // nil under perfect branch prediction
	perfectBranch bool
	lineShift     uint
	lastLine      uint64
	haveLine      bool
	// Insts counts instructions fast-forwarded through this executor.
	Insts uint64
}

// NewFastForward builds the functional executor for c, sharing c's caches,
// TLBs and predictor so warmed state is visible to the detailed model.
func NewFastForward(c *CPU) *FastForward {
	return &FastForward{
		mem:           c.Mem,
		pred:          c.pred,
		perfectBranch: c.cfg.Perfect.Branch,
		lineShift:     c.Mem.L1I.LineShift(),
	}
}

// Step functionally executes one record.
func (f *FastForward) Step(r *trace.Record) {
	f.Insts++
	// Instruction side: like the detailed fetch stage, probe once per new
	// line.
	line := r.PC >> f.lineShift
	if !f.haveLine || line != f.lastLine {
		f.mem.WarmInstr(r.PC)
		f.lastLine, f.haveLine = line, true
	}
	switch {
	case r.Op == isa.Load:
		f.mem.WarmData(r.EA, false)
	case r.Op == isa.Store:
		f.mem.WarmData(r.EA, true)
	case r.Op.IsBranch() && !f.perfectBranch:
		switch r.Op {
		case isa.Call:
			f.pred.Call(r.PC)
		case isa.Return:
			f.pred.Return(r.EA)
		default:
			f.pred.Conditional(r.PC, r.Taken, r.EA)
		}
	}
}

// ResumeSource un-latches the trace-exhausted flag so the fetch stage probes
// the source again. The sampling driver alternates the CPU between drained
// windows by refilling a budgeted source and calling this; it must only be
// called when the CPU is Done (pipeline drained).
func (c *CPU) ResumeSource() {
	c.srcDone = false
	c.wakeAt, c.sleptFrom = 0, 0
	// Force a fresh I-cache probe: fast-forward may have moved execution far
	// from the line the fetch stage last remembered.
	c.haveLine = false
}

// WarmInstr warms the instruction side for a fetch of pc: ITLB fill and an
// L1I lookup with a functional miss fill. No timing state is touched.
func (m *ChipMem) WarmInstr(pc uint64) {
	if m.cfg.Fidelity.TLBModeled && !m.cfg.Perfect.TLB {
		m.ITLB.Access(pc)
	}
	if m.cfg.Perfect.L1 {
		return
	}
	if m.L1I.Access(pc) != nil {
		return
	}
	m.warmMiss(m.L1I, pc, false)
}

// WarmData warms the data side for a load or store of addr: DTLB fill, L1D
// lookup, store write-permission state, and a functional miss fill.
func (m *ChipMem) WarmData(addr uint64, store bool) {
	if m.cfg.Fidelity.TLBModeled && !m.cfg.Perfect.TLB {
		m.DTLB.Access(addr)
	}
	if m.cfg.Perfect.L1 {
		return
	}
	if line := m.L1D.Access(addr); line != nil {
		if store {
			line.State = cache.Modified
			m.L2.SetState(addr, cache.Modified)
		}
		return
	}
	m.warmMiss(m.L1D, addr, store)
}

// warmMiss services an L1 miss functionally: prefetcher training, an L2
// lookup/fill and the L1 fill, mirroring fetchIntoL1's state updates with
// none of its MSHR/port/latency bookkeeping.
func (m *ChipMem) warmMiss(l1 *cache.Cache, addr uint64, store bool) {
	if m.pf != nil && !m.cfg.Perfect.L2 {
		m.warmPrefetch(m.L2.LineAddr(addr))
	}
	if m.cfg.Fidelity.FlatMemory || m.cfg.Perfect.L2 {
		m.fillL1(l1, addr, store, 0)
		return
	}
	l2line := m.L2.Access(addr)
	switch {
	case l2line != nil && store && !l2line.State.Writable():
		l2line.State = cache.Modified
	case l2line != nil:
		// L2 hit: nothing to install.
	default:
		st := cache.Exclusive
		if store {
			st = cache.Modified
		}
		m.warmFillL2(addr, st, false)
	}
	m.fillL1(l1, addr, store, 0)
}

// warmFillL2 installs a line in the L2 with inclusion back-invalidation but
// without the memory-side writeback traffic fillL2 generates.
func (m *ChipMem) warmFillL2(addr uint64, st cache.State, prefetched bool) {
	ev, evicted := m.L2.Fill(addr, st, prefetched)
	if !evicted {
		return
	}
	vaddr := ev.Addr(m.L2.LineShift())
	m.L1D.Invalidate(vaddr)
	m.L1I.Invalidate(vaddr)
}

// warmPrefetch trains the prefetcher on a demand miss and applies its fills
// functionally, keeping L2 content close to the detailed model's.
func (m *ChipMem) warmPrefetch(lineAddr uint64) {
	for _, pfLine := range m.pf.OnMiss(lineAddr) {
		addr := pfLine << m.L2.LineShift()
		if m.L2.AccessPrefetch(addr) {
			continue
		}
		m.warmFillL2(addr, cache.Exclusive, true)
	}
}
