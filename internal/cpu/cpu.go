// Package cpu implements the SPARC64 V out-of-order core timing model: a
// 4-wide issue, 64-entry-window superscalar with two fixed-point units, two
// floating-point multiply-add units, two address generators, the
// RSE/RSF/RSA/RSBR reservation stations, speculative dispatch with data
// forwarding (section 3.1), non-blocking dual operand access with an
// 8-banked L1 (section 3.2), and in-order 4-wide commit.
//
// The model is trace-driven and cycle-accurate, and event-driven in which
// cycles it executes: a tick processes the stages commit-first, so that a
// freed resource is usable one cycle later, never earlier; a tick that does
// nothing puts the CPU to sleep until its next timestamp (wake.go), and
// System skips it until then, crediting the skipped cycles in bulk.
//
// Within a tick, the stages visit only entries that can act. Each entry
// links its consumers through their source slots; when a producer's forward
// cycle becomes known or moves, its consumers compute the cycle their
// operands arrive (readyAt) and enter their station's age-ordered ready
// set then, so dispatch never polls a waiting entry. The LSQ walks only
// dispatched loads awaiting their access, store forwarding only in-flight
// stores, and a load-miss reveal cancels through the transitive dependents
// of the load.
package cpu

import (
	"fmt"

	"sparc64v/internal/bpred"
	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

// entryState is the lifecycle of a window entry.
type entryState uint8

const (
	stEmpty entryState = iota
	// stWaiting: issued into the window and a reservation station, not yet
	// dispatched (or dispatched and then cancelled).
	stWaiting
	// stDispatched: dispatched to an execution unit; timing fields valid.
	stDispatched
)

// Station indices. In the 2RS topology RSE0/RSE1 and RSF0/RSF1 are separate
// stations, each hard-wired to one execution unit and dispatching one
// operation per cycle; in the 1RS topology RSE0 (RSF0) is a fused station
// of double capacity dispatching up to two (Figure 18).
const (
	rsA = iota
	rsBR
	rsE0
	rsE1
	rsF0
	rsF1
	numStations
)

// robEntry is one in-flight instruction. The small fields sit together at
// the end, where they pad to one word instead of one word each.
type robEntry struct {
	rec trace.Record
	seq uint64

	src1Seq, src2Seq uint64 // producer sequence numbers + 1 (0 = ready)
	// Store data source (stores dispatch on address sources only; data
	// readiness is checked at commit).
	dataSeq uint64

	dispCycle     uint64 // cycle of (last) dispatch
	fwdCycle      uint64 // cycle a consumer's execute stage may use the result
	completeCycle uint64 // cycle the result is architecturally final
	specUntil     uint64 // cancellable until this cycle (0 = immune)
	readyAt       uint64 // waiting: first cycle its operands arrive (never = unknown)
	fetchCycle    uint64 // cycle the record left the fetch unit
	issueCycle    uint64 // cycle the record entered the window
	addrReady     uint64 // agen completion (loads/stores); ^0 until known

	// Consumer links: deps heads this entry's list of consumers, and a
	// consumer's next[i] continues the list of the producer behind its
	// source i. A link is consumer seq*2 + source index + 1 (0 ends it).
	deps uint64
	next [2]uint64

	cancels    uint16 // speculative-dispatch cancellations suffered
	st         entryState
	station    int8
	mispredict bool // branch bookkeeping (from fetch)
	inStation  bool // occupies its reservation station
	leaving    bool // in CPU.leaving: dispatched, still cancellable
}

// isLoad/isStore helpers.
func (e *robEntry) isLoad() bool  { return e.rec.Op == isa.Load }
func (e *robEntry) isStore() bool { return e.rec.Op == isa.Store }

// fetchedInstr is a decoded record waiting in the fetch buffer.
type fetchedInstr struct {
	rec     trace.Record
	fetched uint64 // cycle the record left the fetch unit
	readyAt uint64 // earliest issue cycle (fetch+decode pipeline depth)
	outcome bpred.Outcome
}

// reveal is a scheduled "the L1 predicted hit was wrong" event.
type reveal struct {
	seq    uint64
	at     uint64 // cycle the miss becomes visible to the scheduler
	newFwd uint64 // true forward cycle (fill-based)
}

// drainStore is a committed store waiting to write the L1.
type drainStore struct {
	addr uint64
	size uint8
	ok   uint64 // earliest drain cycle (commit cycle)
}

// Stats aggregates the core's counters.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	// CommittedByClass splits Committed by instruction class. The split is
	// a conservation oracle for the verification harness (internal/
	// metamorph): on a zero-warmup run the per-class counts must equal the
	// trace's composition exactly, and their sum must equal Committed on
	// every run, truncated or not.
	CommittedByClass [isa.NumClasses]uint64

	// Issue-stall cycles by cause (whole-group stalls).
	StallWindow, StallRename, StallRS, StallLQ, StallSQ uint64
	// Fetch-stall cycles by cause.
	FetchStallICache, FetchStallBranch, FetchBubbles uint64
	// Speculative dispatch.
	SpecCancels uint64
	// L1D bank conflicts (aborted+retried accesses).
	BankConflicts uint64
	// Stores drained to the L1.
	StoresDrained uint64
	// StoreForwards counts loads satisfied by store-queue bypass.
	StoreForwards uint64
	// Special-instruction serializations (crude mode).
	SpecialSerialized uint64

	// Online CPI stack: zero-commit cycles attributed to the condition
	// blocking the window head at that cycle. Complementary to the
	// perfect-ization breakdown (Figure 7): cheap, single-run, per-cycle.
	ZeroCommitFrontend uint64 // window empty, front end filling
	ZeroCommitMemory   uint64 // head is a memory op awaiting data/drain
	ZeroCommitExecute  uint64 // head dispatched, still executing
	ZeroCommitRS       uint64 // head waiting in a reservation station
	ZeroCommitSpec     uint64 // head complete but inside a cancel window
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPU is one processor's timing model.
type CPU struct {
	cfg  *config.Config
	id   int
	Mem  *ChipMem
	pred *bpred.Predictor
	src  trace.Source

	// Window.
	window  []robEntry
	winMask uint64
	head    uint64 // oldest in-flight seq
	tail    uint64 // next seq to allocate

	renameProducer [isa.NumRegs]uint64 // seq+1 of latest producer
	intInFlight    int
	fpInFlight     int

	// Reservation stations. An entry occupies its station from issue until
	// it has dispatched and is no longer cancellable; ready holds the
	// waiting members whose operands have arrived, and timers files the
	// others into it at their readyAt. leaving lists dispatched members
	// still inside their cancel window.
	stationLen [numStations]int
	ready      [numStations]slotSet
	timers     timerHeap
	leaving    []uint64
	unitFree   [numStations][2]uint64 // per attached unit: next free cycle

	// Configuration-derived constants, resolved once at New so the
	// per-cycle stages never chase cfg pointers or re-branch on static
	// switches (the dispatch/issue path dominates the simulator profile).
	dispWidth    [numStations]int // dispatches per cycle per station
	stationCaps  [numStations]int // station entry capacities
	latencies    [isa.NumClasses]isa.LatencyClass
	fwdPenalty   uint64 // extra source-to-use delay when forwarding is off
	issueWidth   int
	commitWidth  int
	windowSize   int
	intRename    int
	fpRename     int
	lqEntries    int
	sqEntries    int
	fetchWidth   int    // instructions per fetch group
	fetchBufCap  int    // fetch buffer capacity bound
	pipeDepth    uint64 // fetch+decode pipeline depth
	hitCycles    uint64 // L1D predicted-hit latency
	storeFwdLat  uint64
	redirectPen  uint64 // mispredict refill penalty
	specialPen   uint64 // crude Special-instruction penalty
	specDispatch bool
	storeForward bool
	specialCrude bool // Special serializes (i.e. !SpecialDetailed)
	bankChecks   bool // bank-conflict fidelity with >1 bank
	bhtBubbles   bool

	// Fetch state. fetchBuf is a head-indexed queue: entries are consumed
	// by advancing fetchHead and the backing array is reused, so steady
	// state allocates nothing.
	fetchBuf      []fetchedInstr
	fetchHead     int
	pendingRec    trace.Record
	pendingValid  bool
	srcDone       bool
	fetchResumeAt uint64 // fetch blocked until this cycle
	blockSeq      uint64 // seq+1 of the mispredicted branch blocking fetch
	lastFetchLine uint64 // last I-cache line probed
	haveLine      bool

	// Load/store queues. loads holds dispatched loads awaiting their cache
	// access, stores the stores in the window. drainQ is head-indexed like
	// fetchBuf.
	lqCount, sqCount int
	loads, stores    slotSet
	drainQ           []drainStore
	drainHead        int

	reveals []reveal

	serializeSeq uint64 // seq+1 of a serializing Special in flight

	pipeTracer func(*PipeEvent)

	// Observer, when non-nil, receives load/store/snoop events (see
	// MemObserver). Set before the first Tick; never mid-run.
	Observer MemObserver

	// Event-driven ticking (wake.go). Tick runs at wakeAt; a quiet tick
	// repeats through [sleptFrom, wakeAt), bumping the counters in credit.
	wakeAt, sleptFrom uint64
	acted             bool
	credit            [numCredits]*uint64
	work              WorkCounts

	warmupLeft uint64
	// Stats is the exported counter block.
	Stats Stats
}

const never = ^uint64(0)

// New builds a CPU with the given chip memory and trace source.
func New(cfg *config.Config, id int, chipMem *ChipMem, src trace.Source) *CPU {
	ws := cfg.CPU.WindowSize
	// Round the window up to a power of two for masking; capacity checks
	// still use the configured size.
	cap := 1
	for cap < ws {
		cap <<= 1
	}
	c := &CPU{
		cfg:        cfg,
		id:         id,
		Mem:        chipMem,
		src:        src,
		window:     make([]robEntry, cap),
		winMask:    uint64(cap - 1),
		warmupLeft: cfg.WarmupInsts,
	}
	if !cfg.Perfect.Branch {
		c.pred = bpred.NewPredictor(cfg.BHT, cfg.RASEntries)
	}
	words := (cap + 63) / 64
	sets := make(slotSet, (numStations+2)*words)
	for i := range c.ready {
		c.ready[i] = sets[i*words : (i+1)*words]
	}
	c.loads = sets[numStations*words : (numStations+1)*words]
	c.stores = sets[(numStations+1)*words:]
	c.timers = make(timerHeap, 0, 2*cap)
	c.leaving = make([]uint64, 0, cap)
	p := &cfg.CPU
	for st := 0; st < numStations; st++ {
		c.dispWidth[st] = dispatchWidthFor(p, st)
		c.stationCaps[st] = stationCapFor(p, st)
	}
	c.latencies = p.Latencies
	if !p.DataForwarding {
		c.fwdPenalty = uint64(p.ForwardDelay)
	}
	c.issueWidth = p.IssueWidth
	c.commitWidth = p.CommitWidth
	c.windowSize = p.WindowSize
	c.intRename = p.IntRenameRegs
	c.fpRename = p.FPRenameRegs
	c.lqEntries = p.LoadQueueEntries
	c.sqEntries = p.StoreQueueEntries
	c.fetchWidth = p.FetchBytes / isa.InstrBytes
	c.fetchBufCap = p.FetchBufEntries
	c.pipeDepth = uint64(p.FetchPipeStages + p.DecodeStages)
	c.hitCycles = uint64(cfg.L1D.HitCycles)
	c.storeFwdLat = uint64(p.StoreForwardCycles)
	c.redirectPen = uint64(p.MispredictRedirect)
	c.specialPen = uint64(p.SpecialPenalty)
	c.specDispatch = p.SpeculativeDispatch
	c.storeForward = p.StoreForwarding
	c.specialCrude = !p.SpecialDetailed
	c.bankChecks = cfg.Fidelity.BankConflicts && cfg.L1D.Banks > 1
	c.bhtBubbles = cfg.Fidelity.BHTBubbles
	// The queues' occupancy bounds are enforced at issue/commit, so sizing
	// the backing arrays to those bounds makes steady state allocation-free.
	c.fetchBuf = make([]fetchedInstr, 0, p.FetchBufEntries+1)
	c.drainQ = make([]drainStore, 0, p.StoreQueueEntries+1)
	return c
}

// SourceReadBound returns the most trace records a single Tick can consume
// from the CPU's source (the fetch width — only fetch reads the source in
// detailed mode). The lockstep batch driver (internal/core) multiplies it
// by a cycle count to bound a machine's demand on a shared trace buffer.
func (c *CPU) SourceReadBound() int { return c.fetchWidth }

// entry returns the window entry for seq if still in flight.
func (c *CPU) entry(seq uint64) *robEntry {
	e := &c.window[seq&c.winMask]
	if e.st == stEmpty || e.seq != seq {
		return nil
	}
	return e
}

// inFlight returns the number of window entries in use.
func (c *CPU) inFlight() int { return int(c.tail - c.head) }

// fetchBufLen returns the number of buffered fetched instructions.
func (c *CPU) fetchBufLen() int { return len(c.fetchBuf) - c.fetchHead }

// pushFetch enqueues a fetched instruction, recycling the backing array
// once the consumed prefix would force a grow (capacity covers the
// occupancy bound, so steady state never allocates).
func (c *CPU) pushFetch(fi fetchedInstr) {
	if len(c.fetchBuf) == cap(c.fetchBuf) && c.fetchHead > 0 {
		n := copy(c.fetchBuf, c.fetchBuf[c.fetchHead:])
		c.fetchBuf = c.fetchBuf[:n]
		c.fetchHead = 0
	}
	c.fetchBuf = append(c.fetchBuf, fi)
}

// popFetch consumes the oldest buffered instruction.
func (c *CPU) popFetch() {
	c.fetchHead++
	if c.fetchHead == len(c.fetchBuf) {
		c.fetchBuf = c.fetchBuf[:0]
		c.fetchHead = 0
	}
}

// drainLen returns the number of committed stores awaiting drain.
func (c *CPU) drainLen() int { return len(c.drainQ) - c.drainHead }

// pushDrain enqueues a committed store, recycling like pushFetch.
func (c *CPU) pushDrain(d drainStore) {
	if len(c.drainQ) == cap(c.drainQ) && c.drainHead > 0 {
		n := copy(c.drainQ, c.drainQ[c.drainHead:])
		c.drainQ = c.drainQ[:n]
		c.drainHead = 0
	}
	c.drainQ = append(c.drainQ, d)
}

// popDrain consumes the oldest committed store.
func (c *CPU) popDrain() {
	c.drainHead++
	if c.drainHead == len(c.drainQ) {
		c.drainQ = c.drainQ[:0]
		c.drainHead = 0
	}
}

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *CPU) Done() bool {
	return c.srcDone && !c.pendingValid && c.fetchBufLen() == 0 &&
		c.inFlight() == 0 && c.drainLen() == 0
}

// Tick advances the core by one cycle, first crediting any cycles it slept
// through. Stage order is reverse-pipeline so same-cycle structural
// effects flow realistically. Ticking every cycle, asleep or not, is exact;
// System ticks a CPU only from its WakeAt.
func (c *CPU) Tick(cycle uint64) {
	c.Settle(cycle)
	if c.Done() {
		c.wakeAt, c.sleptFrom = never, never
		return
	}
	c.work.Ticked++
	c.acted = false
	c.credit = [numCredits]*uint64{}
	c.Stats.Cycles++
	before := c.Stats.Committed
	c.commit(cycle)
	if c.Stats.Committed == before {
		c.attributeZeroCommit(cycle)
	}
	c.processReveals(cycle)
	c.lsqTick(cycle)
	c.dispatch(cycle)
	c.issue(cycle)
	c.fetch(cycle)
	c.sleep(cycle)
}

// commit retires up to CommitWidth completed instructions in order.
func (c *CPU) commit(cycle uint64) {
	for n := 0; n < c.commitWidth && c.head < c.tail; n++ {
		e := &c.window[c.head&c.winMask]
		if e.st != stDispatched || e.completeCycle > cycle {
			return
		}
		if e.specUntil > cycle {
			return // result still cancellable: cannot be architectural yet
		}
		if e.isStore() {
			// Data must be ready (stores dispatch on address sources only).
			if rdy, ok := c.producerComplete(e.dataSeq, cycle); !ok {
				return
			} else if rdy > cycle {
				return
			}
			c.pushDrain(drainStore{addr: e.rec.EA, size: e.rec.Size, ok: cycle + 1})
			c.stores.remove(c.head & c.winMask)
		}
		if e.isLoad() {
			c.lqCount--
		}
		if c.pipeTracer != nil {
			c.pipeTracer(&PipeEvent{
				Seq: e.seq, PC: e.rec.PC, Op: e.rec.Op, EA: e.rec.EA,
				Fetch: e.fetchCycle, Issue: e.issueCycle, Dispatch: e.dispCycle,
				Complete: e.completeCycle, Commit: cycle,
				Cancels: int(e.cancels), Mispredict: e.mispredict,
			})
		}
		if c.Observer != nil && e.isLoad() {
			c.Observer.LoadCommit(c.id, e.seq, &e.rec)
		}
		c.releaseRename(e)
		if c.serializeSeq == e.seq+1 {
			c.serializeSeq = 0
		}
		e.st = stEmpty
		c.head++
		if e.fwdCycle+c.fwdPenalty > cycle+execOffset {
			// The value reaches the register file before the forward path
			// would deliver it: consumers may dispatch earlier.
			c.revise(e, cycle)
		}
		c.acted = true
		c.Stats.Committed++
		c.Stats.CommittedByClass[e.rec.Op]++
		if c.warmupLeft > 0 {
			c.warmupLeft--
			if c.warmupLeft == 0 {
				c.resetMeasurement()
			}
		}
	}
}

// producerComplete reports whether the producer (seq+1 handle) has finally
// completed, and when. Handles of committed producers are complete at 0.
func (c *CPU) producerComplete(handle uint64, cycle uint64) (uint64, bool) {
	if handle == 0 {
		return 0, true
	}
	p := c.entry(handle - 1)
	if p == nil {
		return 0, true // committed
	}
	if p.st != stDispatched {
		return 0, false
	}
	if p.specUntil > cycle {
		return 0, false // still cancellable
	}
	return p.completeCycle, true
}

// releaseRename drops rename bookkeeping at commit.
func (c *CPU) releaseRename(e *robEntry) {
	if e.rec.HasDst() {
		if isa.IsIntReg(e.rec.Dst) {
			c.intInFlight--
		} else {
			c.fpInFlight--
		}
		if c.renameProducer[e.rec.Dst] == e.seq+1 {
			c.renameProducer[e.rec.Dst] = 0
		}
	}
}

// attributeZeroCommit classifies a cycle in which nothing retired by the
// condition blocking the window head.
func (c *CPU) attributeZeroCommit(cycle uint64) {
	s := &c.Stats
	if c.head == c.tail {
		c.bump(creditZeroCommit, &s.ZeroCommitFrontend)
		return
	}
	e := &c.window[c.head&c.winMask]
	switch {
	case e.st == stWaiting:
		c.bump(creditZeroCommit, &s.ZeroCommitRS)
	case e.rec.Op.IsMemory() && (e.completeCycle == never || e.completeCycle > cycle):
		c.bump(creditZeroCommit, &s.ZeroCommitMemory)
	case e.completeCycle > cycle:
		c.bump(creditZeroCommit, &s.ZeroCommitExecute)
	case e.specUntil > cycle:
		c.bump(creditZeroCommit, &s.ZeroCommitSpec)
	case e.isStore():
		c.bump(creditZeroCommit, &s.ZeroCommitMemory) // store data not captured yet
	default:
		c.bump(creditZeroCommit, &s.ZeroCommitExecute)
	}
}

// Counters is one CPU's measurement counter set: the core's, its branch
// predictor's and its chip's caches and TLBs. Every leaf is a monotonic
// counter between warm-up resets. CPU.Counters reads the set and
// setCounters writes it, line for line; the warm-up reset, full Reports and
// sampled window deltas all go through them.
type Counters struct {
	Core         Stats
	Branch       bpred.Stats // zero under perfect branch prediction
	L1I, L1D, L2 cache.Stats

	ITLBAccesses, ITLBMisses uint64
	DTLBAccesses, DTLBMisses uint64
	// TLBStallCycles is the cycles charged to TLB miss penalties (both
	// TLBs).
	TLBStallCycles uint64
}

// Counters reads the CPU's counter set.
func (c *CPU) Counters() Counters {
	var k Counters
	k.Core = c.Stats
	if c.pred != nil {
		k.Branch = c.pred.Stats
	}
	m := c.Mem
	k.L1I, k.L1D, k.L2 = m.L1I.Stats, m.L1D.Stats, m.L2.Stats
	k.ITLBAccesses, k.ITLBMisses = m.ITLB.Accesses, m.ITLB.Misses
	k.DTLBAccesses, k.DTLBMisses = m.DTLB.Accesses, m.DTLB.Misses
	k.TLBStallCycles = m.TLBStallCycles
	return k
}

// setCounters writes k into the CPU's counters. Without a predictor
// (perfect branch prediction) k.Branch is dropped.
func (c *CPU) setCounters(k Counters) {
	c.Stats = k.Core
	if c.pred != nil {
		c.pred.Stats = k.Branch
	}
	m := c.Mem
	m.L1I.Stats, m.L1D.Stats, m.L2.Stats = k.L1I, k.L1D, k.L2
	m.ITLB.Accesses, m.ITLB.Misses = k.ITLBAccesses, k.ITLBMisses
	m.DTLB.Accesses, m.DTLB.Misses = k.DTLBAccesses, k.DTLBMisses
	m.TLBStallCycles = k.TLBStallCycles
}

// resetMeasurement clears all statistics at the warmup boundary so the
// reported numbers reflect steady state (the paper starts its traces only
// after the workload "reaches a steady state").
func (c *CPU) resetMeasurement() {
	// Seed Fetched with the instructions already in flight (window + fetch
	// buffer): they were fetched before the warmup boundary but will commit
	// after it, and without the seed a truncated or cancelled run could
	// report fetched < committed — violating the fetch ≥ commit conservation
	// invariant the verification harness enforces.
	c.setCounters(Counters{Core: Stats{Cycles: 1, Fetched: uint64(c.inFlight() + c.fetchBufLen())}})
}

// String summarizes pipeline state (debugging aid).
func (c *CPU) String() string {
	return fmt.Sprintf("cpu%d: seq[%d,%d) fetchbuf=%d lq=%d sq=%d drain=%d",
		c.id, c.head, c.tail, c.fetchBufLen(), c.lqCount, c.sqCount, c.drainLen())
}
