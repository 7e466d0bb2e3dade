package cpu

import (
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
)

// issue renames and inserts up to IssueWidth instructions per cycle from
// the fetch buffer into the window, a reservation station, and (for memory
// operations) a load/store queue slot. Issue is in-order and stalls as a
// group on the first structural hazard — the paper's argument for keeping
// the issue stage simple enough for one pipeline stage at 1.3 GHz.
func (c *CPU) issue(cycle uint64) {
	c.releaseStations(cycle)
	for n := 0; n < c.issueWidth; n++ {
		if c.fetchBufLen() == 0 || c.fetchBuf[c.fetchHead].readyAt > cycle {
			return
		}
		if c.serializeSeq != 0 {
			// A crude-mode Special instruction serializes the window.
			return
		}
		fi := &c.fetchBuf[c.fetchHead]
		rec := &fi.rec

		if c.inFlight() >= c.windowSize {
			c.bump(creditStall, &c.Stats.StallWindow)
			return
		}
		if rec.HasDst() {
			if isa.IsIntReg(rec.Dst) {
				if c.intInFlight >= c.intRename {
					c.bump(creditStall, &c.Stats.StallRename)
					return
				}
			} else if c.fpInFlight >= c.fpRename {
				c.bump(creditStall, &c.Stats.StallRename)
				return
			}
		}
		st := c.stationFor(rec.Op)
		if st >= 0 && c.stationLen[st] >= c.stationCaps[st] {
			c.bump(creditStall, &c.Stats.StallRS)
			return
		}
		if rec.Op == isa.Load && c.lqCount >= c.lqEntries {
			c.bump(creditStall, &c.Stats.StallLQ)
			return
		}
		if rec.Op == isa.Store && c.sqCount >= c.sqEntries {
			c.bump(creditStall, &c.Stats.StallSQ)
			return
		}

		// Allocate.
		c.acted = true
		seq := c.tail
		c.tail++
		e := &c.window[seq&c.winMask]
		*e = robEntry{} // cleared in place: a literal would be built and copied
		e.rec = *rec
		e.seq = seq
		e.st = stWaiting
		e.station = int8(st)
		e.addrReady = never
		e.fetchCycle = fi.fetched
		e.issueCycle = cycle
		e.mispredict = fi.outcome.Mispredict

		// Rename: resolve sources to producers, claim the destination. A
		// nop reads no operands: it occupies no unit and never dispatches.
		if st >= 0 {
			e.src1Seq = c.lookupProducer(rec.Src1)
			if rec.Op == isa.Store {
				// Stores dispatch on the address source only; the data
				// source is tracked separately and checked at commit.
				e.dataSeq = c.lookupProducer(rec.Src2)
			} else {
				e.src2Seq = c.lookupProducer(rec.Src2)
			}
			c.link(e, 0, e.src1Seq)
			c.link(e, 1, e.src2Seq)
		}
		if rec.HasDst() {
			c.renameProducer[rec.Dst] = seq + 1
			if isa.IsIntReg(rec.Dst) {
				c.intInFlight++
			} else {
				c.fpInFlight++
			}
		}

		switch {
		case st >= 0:
			e.inStation = true
			c.stationLen[st]++
			c.wake(e, cycle)
		default:
			// Nop-like: completes immediately after issue.
			e.st = stDispatched
			e.dispCycle = cycle
			e.fwdCycle = cycle + 1
			e.completeCycle = cycle + 1
		}
		if rec.Op == isa.Load {
			c.lqCount++
		}
		if rec.Op == isa.Store {
			c.sqCount++
			c.stores.add(seq & c.winMask)
		}
		if e.mispredict {
			c.blockSeq = seq + 1
		}
		if rec.Op == isa.Special && c.specialCrude {
			c.serializeSeq = seq + 1
			c.Stats.SpecialSerialized++
		}
		c.popFetch()
	}
}

// lookupProducer returns the producer handle (seq+1, 0 = ready) for an
// architectural source register.
func (c *CPU) lookupProducer(reg uint8) uint64 {
	if reg == isa.RegNone || reg == isa.G0 || reg >= isa.NumRegs {
		return 0
	}
	h := c.renameProducer[reg]
	if h == 0 {
		return 0
	}
	if c.entry(h-1) == nil {
		return 0 // producer already committed
	}
	return h
}

// stationFor routes an instruction class to its reservation station.
func (c *CPU) stationFor(op isa.Class) int {
	switch {
	case op.IsMemory():
		return rsA
	case op.IsBranch():
		return rsBR
	case op.IsInt(), op == isa.Special:
		if c.cfg.CPU.OneRS || c.cfg.CPU.IntUnits < 2 {
			return rsE0
		}
		if c.stationLen[rsE0] <= c.stationLen[rsE1] {
			return rsE0
		}
		return rsE1
	case op.IsFloat():
		if c.cfg.CPU.OneRS || c.cfg.CPU.FPUnits < 2 {
			return rsF0
		}
		if c.stationLen[rsF0] <= c.stationLen[rsF1] {
			return rsF0
		}
		return rsF1
	default: // Nop
		return -1
	}
}

// dispatchWidthFor returns dispatches per cycle for a station (resolved
// once at New into CPU.dispWidth).
func dispatchWidthFor(p *config.CPUParams, st int) int {
	switch st {
	case rsA:
		return p.AGUnits
	case rsBR:
		return 1
	case rsE0:
		if p.OneRS && p.IntUnits >= 2 {
			return 2
		}
		return 1
	case rsF0:
		if p.OneRS && p.FPUnits >= 2 {
			return 2
		}
		return 1
	default:
		return 1
	}
}

// stationCapFor returns the entry capacity of a station (resolved once at
// New into CPU.stationCaps).
func stationCapFor(p *config.CPUParams, st int) int {
	switch st {
	case rsA:
		return p.RSAEntries
	case rsBR:
		return p.RSBREntries
	case rsE0:
		if p.OneRS {
			return 2 * p.RSEEntries
		}
		return p.RSEEntries
	case rsE1:
		return p.RSEEntries
	case rsF0:
		if p.OneRS {
			return 2 * p.RSFEntries
		}
		return p.RSFEntries
	default:
		return p.RSFEntries
	}
}

// releaseStations runs at the top of issue: a dispatched entry leaves its
// station at the first issue stage past its cancel window. An entry that
// dispatched outside any cancel window left at dispatch, and one a cancel
// returned to its station stays.
func (c *CPU) releaseStations(cycle uint64) {
	kept := c.leaving[:0]
	for _, seq := range c.leaving {
		c.work.StationScans++
		e := &c.window[seq&c.winMask]
		switch {
		case e.st == stWaiting:
			e.leaving = false
		case e.st == stEmpty || cycle >= e.specUntil:
			c.leaveStation(e)
		default:
			kept = append(kept, seq)
		}
	}
	c.leaving = kept
}

// leaveStation frees e's station entry.
func (c *CPU) leaveStation(e *robEntry) {
	if e.inStation {
		c.stationLen[e.station]--
		e.inStation = false
	}
	e.leaving = false
}

// dispatch selects ready instructions from each reservation station,
// oldest first, and schedules their execution. It visits only members of
// the ready sets: entries whose operands reach the execute stage in time.
func (c *CPU) dispatch(cycle uint64) {
	for len(c.timers) > 0 && c.timers[0].at <= cycle {
		t := c.timers.pop()
		c.work.StationScans++
		e := &c.window[t.seq&c.winMask]
		if e.seq == t.seq && e.st == stWaiting && e.inStation && e.readyAt == t.at {
			c.ready[e.station].add(e.seq & c.winMask)
		}
	}
	for st := 0; st < numStations; st++ {
		width := c.dispWidth[st]
		dispatched := 0
		// The ready set is re-read after each dispatch: a zero-latency
		// producer readies a younger member in the same cycle.
		seq, ok := c.oldest(c.ready[st], c.head)
		for ; ok && dispatched < width; seq, ok = c.oldest(c.ready[st], seq+1) {
			c.work.StationScans++
			unit := c.freeUnit(st, width, cycle)
			if unit < 0 {
				break
			}
			e := &c.window[seq&c.winMask]
			// The dispatch stays cancellable while a source is a still
			// unconfirmed load hit.
			specUntil := max(c.srcSpec(e.src1Seq), c.srcSpec(e.src2Seq))
			c.schedule(e, st, unit, cycle, specUntil)
			dispatched++
		}
	}
}

// link adds e, through its source i, to the consumers of the producer
// behind handle h (seq+1 of an in-flight entry, 0 = none).
func (c *CPU) link(e *robEntry, i int, h uint64) {
	if h == 0 {
		return
	}
	p := &c.window[(h-1)&c.winMask]
	e.next[i] = p.deps
	p.deps = e.seq<<1 | uint64(i) + 1
}

// consumer resolves a consumer link to its entry and the link that
// follows it.
func (c *CPU) consumer(l uint64) (*robEntry, uint64) {
	d := &c.window[(l-1)>>1&c.winMask]
	return d, d.next[(l-1)&1]
}

// srcAt returns the first cycle at which a consumer may dispatch on the
// producer behind handle h, so that the result reaches its execute stage:
// 0 once the value is in the register file, never while the producer's
// forward cycle is unknown.
func (c *CPU) srcAt(h uint64) uint64 {
	if h == 0 {
		return 0
	}
	p := &c.window[(h-1)&c.winMask]
	if p.st == stEmpty || p.seq != h-1 {
		return 0
	}
	if p.st != stDispatched || p.fwdCycle == never {
		return never
	}
	return max(p.fwdCycle+c.fwdPenalty, execOffset) - execOffset
}

// wake recomputes a waiting station member's readyAt and files it: into
// its station's ready set once readyAt has passed, otherwise on the
// timers.
func (c *CPU) wake(e *robEntry, cycle uint64) {
	if e.st != stWaiting || !e.inStation {
		return
	}
	at := c.operandsAt(e)
	if at <= cycle {
		c.ready[e.station].add(e.seq & c.winMask)
	} else {
		if e.readyAt <= cycle {
			// Only an entry whose readyAt had passed can be in the set.
			c.ready[e.station].remove(e.seq & c.winMask)
		}
		if at != never && at != e.readyAt {
			c.timers.push(timer{at: at, seq: e.seq})
		}
	}
	e.readyAt = at
}

// operandsAt returns the first cycle at which e may dispatch.
func (c *CPU) operandsAt(e *robEntry) uint64 {
	return max(c.srcAt(e.src1Seq), c.srcAt(e.src2Seq))
}

// srcSpec returns until when the result behind handle h remains
// cancellable (0 once committed).
func (c *CPU) srcSpec(h uint64) uint64 {
	if h == 0 {
		return 0
	}
	p := &c.window[(h-1)&c.winMask]
	if p.st == stEmpty || p.seq != h-1 {
		return 0
	}
	return p.specUntil
}

// execOffset is the dispatch-to-execute depth: dispatch, register read,
// execute (section 3.1's minimum three stages).
const execOffset = 2

// freeUnit returns an execution unit of the station whose non-pipelined
// interlock (divides) has cleared, or -1. Fused 1RS stations own both
// units of their class.
func (c *CPU) freeUnit(st, width int, cycle uint64) int {
	for u := 0; u < width && u < 2; u++ {
		if c.unitFree[st][u] <= cycle+execOffset {
			return u
		}
	}
	return -1
}

// schedule marks e dispatched at cycle on the given unit and computes its
// timing.
func (c *CPU) schedule(e *robEntry, st, unit int, cycle uint64, specUntil uint64) {
	lat := c.latencies[e.rec.Op]
	execStart := cycle + execOffset
	done := execStart + uint64(lat.Cycles)

	c.acted = true
	e.st = stDispatched
	e.dispCycle = cycle
	e.specUntil = specUntil
	e.readyAt = 0
	c.ready[st].remove(e.seq & c.winMask)
	if specUntil <= cycle {
		c.leaveStation(e)
	} else if !e.leaving {
		e.leaving = true
		c.leaving = append(c.leaving, e.seq)
	}

	if !lat.Pipelined {
		c.unitFree[st][unit] = done
	}

	switch {
	case e.rec.Op.IsMemory():
		// Address generation completes; the LSQ takes over.
		e.addrReady = done
		e.fwdCycle = never // set when the access issues
		e.completeCycle = never
		if e.isStore() {
			// Stores are architecturally done once address (and, checked
			// at commit, data) are known.
			e.completeCycle = done
			e.fwdCycle = done
		} else {
			c.loads.add(e.seq & c.winMask)
		}
	case e.rec.Op.IsBranch():
		e.fwdCycle = done
		e.completeCycle = done
		if e.mispredict && c.blockSeq == e.seq+1 {
			// Resolution: fetch restarts down the correct path.
			c.fetchResumeAt = done + c.redirectPen
		}
	default:
		if e.rec.Op == isa.Special && c.specialCrude {
			done = execStart + c.specialPen
		}
		e.fwdCycle = done
		e.completeCycle = done
	}
	if e.fwdCycle != never {
		c.revise(e, cycle)
	}
}

// processReveals applies scheduled load-miss reveals: the cycle the L1
// would have delivered a predicted hit, the scheduler learns the truth and
// cancels every speculatively dispatched dependent (section 3.1: "all
// instructions that have read-after-write dependency must be cancelled at
// every stage").
func (c *CPU) processReveals(cycle uint64) {
	if len(c.reveals) == 0 {
		return
	}
	kept := c.reveals[:0]
	for _, r := range c.reveals {
		if r.at > cycle {
			kept = append(kept, r)
			continue
		}
		c.applyReveal(r, cycle)
	}
	c.reveals = kept
}

func (c *CPU) applyReveal(r reveal, cycle uint64) {
	c.acted = true
	e := c.entry(r.seq)
	if e == nil {
		return
	}
	e.fwdCycle = r.newFwd
	e.specUntil = 0
	c.revise(e, cycle)
}

// revise refiles p's consumers after p's forward cycle was set or moved,
// p was cancelled, or p committed ahead of its forward path: a dispatched
// consumer whose operands no longer arrive in time is cancelled in turn,
// and a waiting one gets a new readyAt. Only transitive dependents of p
// can have lost their operands, so this cancels exactly what re-checking
// every younger entry would.
func (c *CPU) revise(p *robEntry, cycle uint64) {
	for l := p.deps; l != 0; {
		var d *robEntry
		d, l = c.consumer(l)
		c.work.WindowScans++
		if d.st == stDispatched {
			if c.operandsAt(d) > d.dispCycle {
				c.cancel(d, cycle)
			}
			continue
		}
		c.wake(d, cycle)
	}
}

// cancel returns a dispatched entry to its reservation station (it never
// left: its cancel window is still open) and cancels its dispatched
// consumers.
func (c *CPU) cancel(d *robEntry, cycle uint64) {
	c.Stats.SpecCancels++
	d.cancels++
	d.st = stWaiting
	d.dispCycle = 0
	d.fwdCycle = 0
	d.completeCycle = 0
	d.specUntil = 0
	if d.rec.Op.IsMemory() {
		d.addrReady = never
		c.loads.remove(d.seq & c.winMask)
	}
	if d.mispredict && c.blockSeq == d.seq+1 {
		// The resolving branch itself was cancelled: fetch stays blocked
		// until it re-dispatches.
		c.fetchResumeAt = never
	}
	c.wake(d, cycle)
	c.revise(d, cycle)
}
