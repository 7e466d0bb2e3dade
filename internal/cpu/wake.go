package cpu

// Event-driven ticking. Most cycles of a server workload are quiet: the CPU
// retires, dispatches, issues, fetches and drains nothing, and only waits
// for a timestamp to pass. A quiet tick at cycle t changes no state that a
// later tick reads except through comparisons of cycle against the
// thresholds nextEvent collects, so every cycle before the earliest such
// threshold would repeat it exactly: the same counters bump and nothing
// else happens. The CPU therefore records which counters the quiet tick
// bumped, sleeps until that threshold (wakeAt), and Settle credits the
// skipped cycles to those counters in bulk.
//
// Shared state needs no wake-up. Memory, bus and coherence compute their
// timestamps when a request is made, and a snoop changes cache state only;
// a sleeping CPU reads no shared state until it acts, and acting always
// means ticking.

// Credit kinds: a tick bumps at most one counter of each.
const (
	creditZeroCommit = iota
	creditStall
	creditFetchStall
	numCredits
)

// WakeAt returns the next cycle at which the CPU must Tick. Ticking it
// earlier is exact but wasted; the System skips it until then. A Done CPU
// never wakes.
func (c *CPU) WakeAt() uint64 { return c.wakeAt }

// Settle credits the quiet cycles the CPU slept through before upTo. Tick
// settles on entry; the System settles at every Step boundary, so readers
// of Stats between steps see exact counters.
func (c *CPU) Settle(upTo uint64) {
	end := min(upTo, c.wakeAt)
	if end <= c.sleptFrom {
		return
	}
	k := end - c.sleptFrom
	c.sleptFrom = end
	c.work.Skipped += k
	c.Stats.Cycles += k
	for _, p := range c.credit {
		if p != nil {
			*p += k
		}
	}
}

// WorkCounts is the simulator effort spent on a CPU. It is host-side
// accounting: deterministic and host-independent, but never part of Stats,
// so it moves no Report and no run-cache key.
type WorkCounts struct {
	// Ticked and Skipped are the cycles the CPU ticked and the cycles it
	// slept through (credited by Settle). Their sum is the CPU's
	// non-drained cycle count.
	Ticked, Skipped uint64
	// StationScans counts reservation-station entries the stages examined;
	// WindowScans counts window entries examined by the LSQ, store
	// forwarding, consumer wake-ups, cancellation and nextEvent.
	StationScans, WindowScans uint64
}

// Add accumulates o into w.
func (w *WorkCounts) Add(o WorkCounts) {
	w.Ticked += o.Ticked
	w.Skipped += o.Skipped
	w.StationScans += o.StationScans
	w.WindowScans += o.WindowScans
}

// Work returns the simulator effort spent on this CPU so far.
func (c *CPU) Work() WorkCounts { return c.work }

// bump increments ctr and remembers it as this tick's counter of the given
// credit kind.
func (c *CPU) bump(kind int, ctr *uint64) {
	*ctr++
	c.credit[kind] = ctr
}

// sleep ends a tick: an acting tick wakes next cycle; a quiet one sleeps
// until its next event.
func (c *CPU) sleep(cycle uint64) {
	c.sleptFrom = cycle + 1
	if c.acted {
		c.wakeAt = cycle + 1
		return
	}
	c.wakeAt = c.nextEvent(cycle)
}

// nextEvent returns the earliest cycle after cycle at which a quiet CPU
// could act or bump a different counter: a comparison against cycle in
// some stage changes outcome. Waking early is always exact; missing a
// threshold is not, so every timestamp a stage compares is collected. A
// quiet tick committed, dispatched and accessed nothing, so only these can
// change its outcome: the window head's completion and cancel window (and
// a store head's data producer), the cancel windows of station members
// waiting to leave, the address generation of loads awaiting access, the
// timers' readyAt, and the queues and units below.
func (c *CPU) nextEvent(cycle uint64) uint64 {
	next := never
	at := func(t uint64) {
		if t > cycle && t < next {
			next = t
		}
	}
	if c.head < c.tail {
		c.work.WindowScans++
		if h := &c.window[c.head&c.winMask]; h.st == stDispatched {
			at(h.completeCycle)
			at(h.specUntil)
			if h.isStore() && h.dataSeq != 0 {
				if p := c.entry(h.dataSeq - 1); p != nil {
					at(p.completeCycle)
					at(p.specUntil)
				}
			}
		}
	}
	for _, seq := range c.leaving {
		c.work.StationScans++
		at(c.window[seq&c.winMask].specUntil)
	}
	for seq, ok := c.oldest(c.loads, c.head); ok; seq, ok = c.oldest(c.loads, seq+1) {
		c.work.WindowScans++
		at(c.window[seq&c.winMask].addrReady)
	}
	if len(c.timers) > 0 {
		at(c.timers[0].at)
	}
	for _, r := range c.reveals {
		at(r.at)
	}
	if c.drainLen() > 0 {
		at(c.drainQ[c.drainHead].ok)
	}
	if c.fetchBufLen() > 0 {
		at(c.fetchBuf[c.fetchHead].readyAt)
	}
	at(c.fetchResumeAt)
	for st := range c.unitFree {
		for _, t := range c.unitFree[st] {
			if t > cycle+execOffset {
				at(t - execOffset)
			}
		}
	}
	return next
}
