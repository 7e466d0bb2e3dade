// Package config defines the full parameter set of the performance model
// and the machine presets used in the paper's studies.
//
// The paper's model exposed ~500 parameters; this reproduction keeps the
// load-bearing ones: every number in Table 1, every alternative studied in
// section 4 (issue width, BHT geometry, L1/L2 geometry, prefetching,
// reservation-station topology), the perfect-ization switches used for the
// Figure 7 breakdown, and the model-fidelity knobs that implement the
// version ladder of Figure 19.
package config

import (
	"fmt"

	"sparc64v/internal/isa"
)

// CacheGeometry describes one cache.
type CacheGeometry struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity (1 = direct mapped).
	Ways int
	// LineBytes is the line size.
	LineBytes int
	// HitCycles is the access latency on a hit.
	HitCycles int
	// MSHRs is the number of miss-status holding registers (outstanding
	// line misses) for a non-blocking cache; 1 makes the cache blocking.
	MSHRs int
	// Banks is the number of interleaved banks (0 = unbanked). The SPARC64 V
	// L1 operand cache has eight 4-byte banks.
	Banks int
	// BankBytes is the width of one bank in bytes; a banked cache
	// (Banks > 1) needs at least one.
	BankBytes int
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeometry) Sets() int { return g.SizeBytes / (g.Ways * g.LineBytes) }

// Validate checks that the geometry is internally consistent.
func (g CacheGeometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0 {
		return fmt.Errorf("config: non-positive cache geometry %+v", g)
	}
	if g.SizeBytes%(g.Ways*g.LineBytes) != 0 {
		return fmt.Errorf("config: size %d not divisible by ways*line (%d*%d)",
			g.SizeBytes, g.Ways, g.LineBytes)
	}
	if s := g.Sets(); !pow2(s) {
		return fmt.Errorf("config: set count %d not a power of two", s)
	}
	if !pow2(g.LineBytes) {
		return fmt.Errorf("config: line size %d not a power of two", g.LineBytes)
	}
	if g.HitCycles < 1 {
		return fmt.Errorf("config: hit latency %d < 1", g.HitCycles)
	}
	if g.MSHRs < 1 || g.Banks < 0 {
		return fmt.Errorf("config: cache needs MSHRs ≥ 1 and banks ≥ 0, got %d and %d", g.MSHRs, g.Banks)
	}
	if g.Banks > 1 && g.BankBytes < 1 {
		return fmt.Errorf("config: %d banks need a bank width ≥ 1, got %d", g.Banks, g.BankBytes)
	}
	return nil
}

// BHTGeometry describes the branch history table.
type BHTGeometry struct {
	// Entries is the total number of entries (e.g. 16K).
	Entries int
	// Ways is the set associativity.
	Ways int
	// AccessCycles is the table read latency; a predicted-taken branch
	// inserts AccessCycles fetch bubbles before the target can be fetched
	// (the paper's "one bubble" for 4k-2w.1t vs "two bubbles" for 16k-4w.2t).
	AccessCycles int
}

// Validate checks the geometry.
func (g BHTGeometry) Validate() error {
	if g.Entries <= 0 || g.Ways <= 0 || g.Entries%g.Ways != 0 {
		return fmt.Errorf("config: bad BHT geometry %+v", g)
	}
	if s := g.Entries / g.Ways; !pow2(s) {
		return fmt.Errorf("config: BHT set count %d not a power of two", s)
	}
	if g.AccessCycles < 1 {
		return fmt.Errorf("config: BHT access latency %d < 1", g.AccessCycles)
	}
	return nil
}

// TLBGeometry describes one TLB.
type TLBGeometry struct {
	// Entries is the number of TLB entries.
	Entries int
	// PageBytes is the page size.
	PageBytes int
	// MissPenalty is the refill cost in cycles (trap-style software walk).
	MissPenalty int
}

// Validate checks the geometry. Up to 16 entries the TLB is fully
// associative; above that it is 8-way, with a power-of-two set count.
func (g TLBGeometry) Validate() error {
	if g.Entries < 1 || g.Entries > 16 && (g.Entries%8 != 0 || !pow2(g.Entries/8)) ||
		!pow2(g.PageBytes) || g.MissPenalty < 0 {
		return fmt.Errorf("config: bad TLB geometry %+v: want 1 to 16 or 8×2^k entries, "+
			"a power-of-two page size and a miss penalty ≥ 0", g)
	}
	return nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CPUParams configures the out-of-order core.
type CPUParams struct {
	// IssueWidth is the decode/issue width (4 in the base machine; the
	// Figure 8 study compares against 2).
	IssueWidth int
	// CommitWidth is the in-order retirement width.
	CommitWidth int
	// FetchBytes is the instruction fetch width in bytes (32 = 8 instrs).
	FetchBytes int
	// FetchPipeStages is the depth of the instruction fetch pipeline
	// (1 priority + 3 cache + 1 validate = 5 on the SPARC64 V).
	FetchPipeStages int
	// DecodeStages is the decode/issue pipeline depth.
	DecodeStages int
	// FetchBufEntries is the capacity of the fetch buffer, in instructions.
	FetchBufEntries int
	// WindowSize is the instruction window (64 on the SPARC64 V).
	WindowSize int
	// IntRenameRegs and FPRenameRegs bound in-flight renamed results.
	IntRenameRegs, FPRenameRegs int
	// RSEEntries and RSFEntries are per reservation station (8 each, two
	// stations). When OneRS is set the two stations are fused into a single
	// 2*entries station that can dispatch two operations per cycle
	// (the Figure 18 "1RS" alternative).
	RSEEntries, RSFEntries int
	// RSAEntries and RSBREntries are the address-generation and branch
	// reservation stations (10 each).
	RSAEntries, RSBREntries int
	// OneRS selects the fused reservation-station topology.
	OneRS bool
	// LoadQueueEntries and StoreQueueEntries size the memory queues (16/10).
	LoadQueueEntries, StoreQueueEntries int
	// IntUnits, FPUnits, AGUnits count execution units (2 each).
	IntUnits, FPUnits, AGUnits int
	// SpeculativeDispatch enables dispatching consumers of loads on the
	// predicted L1 hit timing, cancelling on a miss (section 3.1).
	SpeculativeDispatch bool
	// StoreForwarding lets a load take its data from an older, overlapping
	// store still in the store queue instead of the cache.
	StoreForwarding bool
	// StoreForwardCycles is the store-queue bypass latency.
	StoreForwardCycles int
	// DataForwarding enables bypass paths between all execution units; when
	// disabled results are only visible after the register-file write.
	DataForwarding bool
	// ForwardDelay is the extra delay to reach the register file when
	// DataForwarding is off.
	ForwardDelay int
	// MispredictRedirect is the front-end refill penalty, in cycles, after
	// a mispredicted branch resolves.
	MispredictRedirect int
	// Latencies are the per-class execution latencies.
	Latencies [isa.NumClasses]isa.LatencyClass
	// SpecialDetailed selects detailed modeling of special (serializing)
	// instructions; when false each Special instruction is charged
	// SpecialPenalty cycles and serializes the window. This is the model
	// fidelity change the paper credits for the v5 accuracy jump.
	SpecialDetailed bool
	// SpecialPenalty is the crude fixed penalty (cycles).
	SpecialPenalty int
}

// MemParams configures everything behind the L1 caches.
type MemParams struct {
	// L2 is the unified second-level cache geometry.
	L2 CacheGeometry
	// L2OffChip adds the chip-crossing penalty to every L2 access
	// (the paper estimates 10ns = 13 cycles at 1.3GHz).
	L2OffChip bool
	// OffChipPenalty is that chip-crossing penalty in cycles.
	OffChipPenalty int
	// DRAMCycles is the memory access latency (controller + DRAM).
	DRAMCycles int
	// DRAMBanks is the number of interleaved memory banks.
	DRAMBanks int
	// DRAMBankBusy is the per-access bank occupancy (cycle time).
	DRAMBankBusy int
	// BusBytesPerCycle is the system-bus data bandwidth: a positive
	// multiple of BusChannelBytes.
	BusBytesPerCycle int
	// BusRequestCycles is the bus occupancy of a request/snoop message.
	BusRequestCycles int
	// CacheToCacheCycles is the extra latency of an L2-to-L2 (move-out)
	// transfer in an SMP.
	CacheToCacheCycles int
	// Prefetch enables the L2 hardware prefetcher (section 3.4).
	Prefetch bool
	// PrefetchDegree is how many lines ahead a trigger fetches.
	PrefetchDegree int
	// PrefetchStride enables the stride ("chain access") detector in
	// addition to next-line prefetch.
	PrefetchStride bool
	// PrefetchTableEntries sizes the stride detector table.
	PrefetchTableEntries int
}

// BusChannelBytes is the width of one system-bus data channel: the bus's
// bandwidth is BusBytesPerCycle/BusChannelBytes parallel channels (a
// crossbar-style data network, which is what enterprise SPARC systems of
// this class shipped).
const BusChannelBytes = 8

// Validate checks the L2 geometry and every parameter behind it: the DRAM
// latency and bank busy time are at least a cycle, the bank count is a
// power of two, the bus is a whole number of channels (at least one) and a
// request occupies it at least a cycle, no latency is negative, and an
// enabled prefetcher has a degree and a power-of-two table.
func (p MemParams) Validate() error {
	if err := p.L2.Validate(); err != nil {
		return err
	}
	if p.DRAMCycles < 1 || p.DRAMBankBusy < 1 || !pow2(p.DRAMBanks) {
		return fmt.Errorf("config: DRAM needs latency and bank busy time ≥ 1 and a power-of-two bank count, "+
			"got %d, %d and %d banks", p.DRAMCycles, p.DRAMBankBusy, p.DRAMBanks)
	}
	if p.BusBytesPerCycle < BusChannelBytes || p.BusBytesPerCycle%BusChannelBytes != 0 || p.BusRequestCycles < 1 {
		return fmt.Errorf("config: bus needs a positive multiple of %d bytes per cycle and request cycles ≥ 1, got %d and %d",
			BusChannelBytes, p.BusBytesPerCycle, p.BusRequestCycles)
	}
	if p.OffChipPenalty < 0 || p.CacheToCacheCycles < 0 {
		return fmt.Errorf("config: negative off-chip penalty %d or cache-to-cache latency %d",
			p.OffChipPenalty, p.CacheToCacheCycles)
	}
	if p.Prefetch && (p.PrefetchDegree < 1 || !pow2(p.PrefetchTableEntries)) {
		return fmt.Errorf("config: prefetch degree %d < 1 or table entries %d not a power of two",
			p.PrefetchDegree, p.PrefetchTableEntries)
	}
	return nil
}

// Fidelity holds the model-fidelity knobs that define the version ladder of
// the accuracy study (Figure 19). The final model (v8) has everything on.
type Fidelity struct {
	// FlatMemory replaces the detailed memory hierarchy with a fixed
	// latency for every L1 miss (the "rather rough memory system model"
	// the paper argues against).
	FlatMemory bool
	// FlatMemoryCycles is that fixed latency.
	FlatMemoryCycles int
	// BHTBubbles models taken-branch fetch bubbles from BHT access latency.
	BHTBubbles bool
	// BankConflicts models L1 operand cache bank conflicts.
	BankConflicts bool
	// TLBModeled enables TLB miss modeling.
	TLBModeled bool
	// BusContention enables queuing/occupancy on the bus and DRAM banks.
	BusContention bool
	// CoherenceTiming enables detailed MP coherence transfer timing
	// (cache-to-cache latency); without it remote state is still kept
	// correct but transfers cost the same as memory.
	CoherenceTiming bool
}

// FullFidelity returns the final-model fidelity (everything modeled).
func FullFidelity() Fidelity {
	return Fidelity{
		BHTBubbles:      true,
		BankConflicts:   true,
		TLBModeled:      true,
		BusContention:   true,
		CoherenceTiming: true,
	}
}

// Perfect holds the perfect-ization switches used to attribute stall time
// (Figure 7): each switch removes one source of stalls.
type Perfect struct {
	// L2 makes every L2 access hit.
	L2 bool
	// L1 makes every L1 (instruction and operand) access hit.
	L1 bool
	// TLB makes every TLB access hit.
	TLB bool
	// Branch makes every branch prediction correct with no fetch bubbles.
	Branch bool
}

// Config is the complete machine + model configuration.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// CPUs is the number of processors (1 = UP; the paper's MP study uses 16).
	CPUs int
	// CPU configures the core.
	CPU CPUParams
	// L1I and L1D configure the level-one caches.
	L1I, L1D CacheGeometry
	// BHT configures branch prediction.
	BHT BHTGeometry
	// RASEntries sizes the return-address stack.
	RASEntries int
	// ITLB and DTLB configure address translation.
	ITLB, DTLB TLBGeometry
	// Mem configures the L2 and everything behind it.
	Mem MemParams
	// Perfect holds the stall-attribution switches.
	Perfect Perfect
	// Fidelity holds the model-version knobs.
	Fidelity Fidelity
	// WarmupInsts is the number of committed instructions per CPU excluded
	// from statistics (cache warmup).
	WarmupInsts uint64
}

// Base returns the Table 1 machine: the SPARC64 V as shipped, with the
// final-fidelity model.
func Base() Config {
	return Config{
		Name: "sparc64v.base",
		CPUs: 1,
		CPU: CPUParams{
			IssueWidth:          4,
			CommitWidth:         4,
			FetchBytes:          32,
			FetchPipeStages:     5,
			DecodeStages:        1,
			FetchBufEntries:     24,
			WindowSize:          64,
			IntRenameRegs:       32,
			FPRenameRegs:        32,
			RSEEntries:          8,
			RSFEntries:          8,
			RSAEntries:          10,
			RSBREntries:         10,
			LoadQueueEntries:    16,
			StoreQueueEntries:   10,
			IntUnits:            2,
			FPUnits:             2,
			AGUnits:             2,
			SpeculativeDispatch: true,
			StoreForwarding:     true,
			StoreForwardCycles:  3,
			DataForwarding:      true,
			ForwardDelay:        2,
			MispredictRedirect:  2,
			Latencies:           isa.DefaultLatencies(),
			SpecialDetailed:     true,
			SpecialPenalty:      60,
		},
		L1I: CacheGeometry{SizeBytes: 128 << 10, Ways: 2, LineBytes: 64,
			HitCycles: 3, MSHRs: 4},
		L1D: CacheGeometry{SizeBytes: 128 << 10, Ways: 2, LineBytes: 64,
			HitCycles: 4, MSHRs: 8, Banks: 8, BankBytes: 4},
		BHT:        BHTGeometry{Entries: 16 << 10, Ways: 4, AccessCycles: 2},
		RASEntries: 8,
		ITLB:       TLBGeometry{Entries: 256, PageBytes: 8 << 10, MissPenalty: 40},
		DTLB:       TLBGeometry{Entries: 1024, PageBytes: 8 << 10, MissPenalty: 40},
		Mem: MemParams{
			L2: CacheGeometry{SizeBytes: 2 << 20, Ways: 4, LineBytes: 64,
				HitCycles: 21, MSHRs: 16},
			OffChipPenalty:       13, // 10ns at 1.3GHz
			DRAMCycles:           240,
			DRAMBanks:            16,
			DRAMBankBusy:         12,
			BusBytesPerCycle:     64,
			BusRequestCycles:     1,
			CacheToCacheCycles:   80,
			Prefetch:             true,
			PrefetchDegree:       1,
			PrefetchStride:       true,
			PrefetchTableEntries: 64,
		},
		Fidelity:    FullFidelity(),
		WarmupInsts: 20000,
	}
}

// Validate checks the whole configuration.
func (c *Config) Validate() error {
	if c.CPUs < 1 {
		return fmt.Errorf("config: CPUs = %d", c.CPUs)
	}
	if c.CPU.IssueWidth < 1 || c.CPU.CommitWidth < 1 || c.CPU.WindowSize < 1 {
		return fmt.Errorf("config: bad core widths %+v", c.CPU)
	}
	if c.CPU.IntUnits < 1 || c.CPU.FPUnits < 1 || c.CPU.AGUnits < 1 {
		return fmt.Errorf("config: need at least one unit of each kind")
	}
	if c.CPU.LoadQueueEntries < 1 || c.CPU.StoreQueueEntries < 1 {
		return fmt.Errorf("config: load/store queues must be non-empty")
	}
	if p := c.CPU; p.FetchBytes < isa.InstrBytes || min(p.FetchBufEntries, p.IntRenameRegs, p.FPRenameRegs,
		p.RSEEntries, p.RSFEntries, p.RSAEntries, p.RSBREntries) < 1 {
		return fmt.Errorf("config: core needs a fetch width of at least one instruction and at least "+
			"one fetch-buffer entry, rename register and station entry of each kind: %+v", p)
	}
	if p := c.CPU; min(p.FetchPipeStages, p.DecodeStages, p.StoreForwardCycles, p.ForwardDelay,
		p.MispredictRedirect, p.SpecialPenalty) < 0 {
		return fmt.Errorf("config: negative core pipeline depth or latency: %+v", p)
	}
	for cl, l := range c.CPU.Latencies {
		if l.Cycles < 0 {
			return fmt.Errorf("config: negative %v latency %d", isa.Class(cl), l.Cycles)
		}
	}
	for _, g := range []CacheGeometry{c.L1I, c.L1D} {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.L1I.LineBytes != c.Mem.L2.LineBytes || c.L1D.LineBytes != c.Mem.L2.LineBytes {
		return fmt.Errorf("config: L1/L2 line sizes must match (inclusion)")
	}
	for _, err := range []error{c.BHT.Validate(), c.ITLB.Validate(), c.DTLB.Validate()} {
		if err != nil {
			return err
		}
	}
	if c.RASEntries < 1 {
		return fmt.Errorf("config: RAS entries %d < 1", c.RASEntries)
	}
	if c.Fidelity.FlatMemory && c.Fidelity.FlatMemoryCycles < 1 {
		return fmt.Errorf("config: flat memory needs a latency")
	}
	return nil
}

// ---- Variant builders (section 4 study alternatives). Each returns a
// modified copy so presets compose.

// WithName relabels the configuration.
func (c Config) WithName(name string) Config { c.Name = name; return c }

// WithCPUs sets the processor count (SMP model).
func (c Config) WithCPUs(n int) Config { c.CPUs = n; return c }

// WithIssueWidth sets decode/issue width (Figure 8: 4 vs 2).
func (c Config) WithIssueWidth(w int) Config {
	c.CPU.IssueWidth = w
	c.Name = fmt.Sprintf("%s.issue%d", c.Name, w)
	return c
}

// WithSmallBHT selects the 4K-entry 2-way 1-cycle table (Figure 9/10's
// "4k-2w.1t" alternative).
func (c Config) WithSmallBHT() Config {
	c.BHT = BHTGeometry{Entries: 4 << 10, Ways: 2, AccessCycles: 1}
	c.Name += ".bht4k-2w.1t"
	return c
}

// WithSmallL1 selects the 32KB direct-mapped 3-cycle L1 caches
// (Figure 11-13's "32k-1w.3c" alternative).
func (c Config) WithSmallL1() Config {
	c.L1I = CacheGeometry{SizeBytes: 32 << 10, Ways: 1, LineBytes: 64,
		HitCycles: 2, MSHRs: c.L1I.MSHRs}
	c.L1D = CacheGeometry{SizeBytes: 32 << 10, Ways: 1, LineBytes: 64,
		HitCycles: 3, MSHRs: c.L1D.MSHRs, Banks: 8, BankBytes: 4}
	c.Name += ".l1-32k-1w.3c"
	return c
}

// WithL1Capacity shrinks (or grows) both L1 caches to sizeBytes with the
// given associativity while keeping the base hit latencies, line size,
// banking and MSHRs — a pure capacity/associativity change, unlike
// WithSmallL1's latency-for-volume trade-off. The analytic calibration
// ladder and the trend checks use it to probe cache-size response in
// isolation.
func (c Config) WithL1Capacity(sizeBytes, ways int) Config {
	c.L1I.SizeBytes, c.L1I.Ways = sizeBytes, ways
	c.L1D.SizeBytes, c.L1D.Ways = sizeBytes, ways
	c.Name += fmt.Sprintf(".l1-%dk-%dw-iso", sizeBytes>>10, ways)
	return c
}

// WithOffChipL2 selects an off-chip 8MB L2 with the given associativity
// (Figure 14/15's "off.8m-2w" and "off.8m-1w" alternatives).
func (c Config) WithOffChipL2(ways int) Config {
	c.Mem.L2 = CacheGeometry{SizeBytes: 8 << 20, Ways: ways, LineBytes: 64,
		HitCycles: c.Mem.L2.HitCycles, MSHRs: c.Mem.L2.MSHRs}
	c.Mem.L2OffChip = true
	c.Name += fmt.Sprintf(".l2-off.8m-%dw", ways)
	return c
}

// WithoutPrefetch disables the hardware prefetcher (Figure 16/17 baseline).
func (c Config) WithoutPrefetch() Config {
	c.Mem.Prefetch = false
	c.Name += ".nopf"
	return c
}

// WithOneRS selects the fused single-reservation-station topology that can
// dispatch two operations per cycle (Figure 18's "1RS").
func (c Config) WithOneRS() Config {
	c.CPU.OneRS = true
	c.Name += ".1rs"
	return c
}

// WithPerfect applies perfect-ization switches.
func (c Config) WithPerfect(p Perfect) Config {
	c.Perfect = p
	return c
}

// WithFidelity applies a model-version fidelity set.
func (c Config) WithFidelity(f Fidelity, detailedSpecial bool) Config {
	c.Fidelity = f
	c.CPU.SpecialDetailed = detailedSpecial
	return c
}
