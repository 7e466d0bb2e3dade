package config

import (
	"strings"
	"testing"

	"sparc64v/internal/isa"
)

func TestBaseValidates(t *testing.T) {
	c := Base()
	if err := c.Validate(); err != nil {
		t.Fatalf("Base() invalid: %v", err)
	}
	// Table 1 numbers.
	if c.CPU.IssueWidth != 4 || c.CPU.WindowSize != 64 ||
		c.CPU.IntRenameRegs != 32 || c.CPU.FPRenameRegs != 32 {
		t.Errorf("core params diverge from Table 1: %+v", c.CPU)
	}
	if c.L1I.SizeBytes != 128<<10 || c.L1I.Ways != 2 {
		t.Errorf("L1I diverges from Table 1: %+v", c.L1I)
	}
	if c.L1D.Banks != 8 || c.L1D.BankBytes != 4 {
		t.Errorf("L1D banking diverges: %+v", c.L1D)
	}
	if c.Mem.L2.SizeBytes != 2<<20 || c.Mem.L2.Ways != 4 || c.Mem.L2OffChip {
		t.Errorf("L2 diverges from Table 1: %+v", c.Mem.L2)
	}
	if c.BHT.Entries != 16<<10 || c.BHT.Ways != 4 || c.BHT.AccessCycles != 2 {
		t.Errorf("BHT diverges from Table 1: %+v", c.BHT)
	}
	if c.CPU.LoadQueueEntries != 16 || c.CPU.StoreQueueEntries != 10 {
		t.Errorf("LSQ diverges from Table 1")
	}
	if c.CPU.RSAEntries != 10 || c.CPU.RSBREntries != 10 ||
		c.CPU.RSEEntries != 8 || c.CPU.RSFEntries != 8 {
		t.Errorf("reservation stations diverge from Table 1")
	}
}

func TestVariants(t *testing.T) {
	base := Base()

	v := base.WithIssueWidth(2)
	if v.CPU.IssueWidth != 2 || base.CPU.IssueWidth != 4 {
		t.Error("WithIssueWidth must not mutate the receiver")
	}
	if err := v.Validate(); err != nil {
		t.Errorf("issue2 invalid: %v", err)
	}

	v = base.WithSmallBHT()
	if v.BHT.Entries != 4<<10 || v.BHT.AccessCycles != 1 {
		t.Errorf("small BHT = %+v", v.BHT)
	}
	if err := v.Validate(); err != nil {
		t.Errorf("small BHT invalid: %v", err)
	}

	v = base.WithSmallL1()
	if v.L1I.SizeBytes != 32<<10 || v.L1I.Ways != 1 || v.L1D.HitCycles != 3 {
		t.Errorf("small L1 = %+v / %+v", v.L1I, v.L1D)
	}
	if err := v.Validate(); err != nil {
		t.Errorf("small L1 invalid: %v", err)
	}

	for _, ways := range []int{1, 2} {
		v = base.WithOffChipL2(ways)
		if !v.Mem.L2OffChip || v.Mem.L2.SizeBytes != 8<<20 || v.Mem.L2.Ways != ways {
			t.Errorf("off-chip L2 = %+v", v.Mem)
		}
		if err := v.Validate(); err != nil {
			t.Errorf("off-chip L2 invalid: %v", err)
		}
	}

	v = base.WithoutPrefetch()
	if v.Mem.Prefetch || !base.Mem.Prefetch {
		t.Error("WithoutPrefetch wrong")
	}
	v = base.WithOneRS()
	if !v.CPU.OneRS {
		t.Error("WithOneRS wrong")
	}
	v = base.WithCPUs(16).WithName("smp")
	if v.CPUs != 16 || v.Name != "smp" {
		t.Error("WithCPUs/WithName wrong")
	}
	if !strings.Contains(base.WithIssueWidth(2).Name, "issue2") {
		t.Error("variant naming missing")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.CPUs = 0 },
		func(c *Config) { c.CPU.IssueWidth = 0 },
		func(c *Config) { c.CPU.IntUnits = 0 },
		func(c *Config) { c.CPU.LoadQueueEntries = 0 },
		func(c *Config) { c.L1D.SizeBytes = 100 },        // not divisible
		func(c *Config) { c.L1D.LineBytes = 48 },         // non power of two
		func(c *Config) { c.Mem.L2.HitCycles = 0 },       // zero latency
		func(c *Config) { c.BHT.Ways = 3 },               // bad BHT
		func(c *Config) { c.L1I.LineBytes = 32 },         // line mismatch
		func(c *Config) { c.Fidelity.FlatMemory = true }, // no flat latency
		func(c *Config) { c.ITLB.Entries = 0 },
		func(c *Config) { c.DTLB.Entries = 24 },     // 8-way, 3 sets
		func(c *Config) { c.DTLB.PageBytes = 3000 }, // non power of two
		func(c *Config) { c.ITLB.PageBytes = 0 },
		func(c *Config) { c.DTLB.MissPenalty = -1 },
		func(c *Config) { c.RASEntries = 0 },
		func(c *Config) { c.Mem.PrefetchDegree = 0 },
		func(c *Config) { c.Mem.PrefetchTableEntries = 48 },
		func(c *Config) { c.Mem.PrefetchTableEntries = 0 },
		// A clamp or default used to run each of these as a valid machine
		// under a key of its own; the core ones hung until the cycle cap.
		func(c *Config) { c.L1D.MSHRs = 0 },
		func(c *Config) { c.L1I.MSHRs = -3 },
		func(c *Config) { c.Mem.L2.MSHRs = 0 },
		func(c *Config) { c.L1D.Banks = -2 },
		func(c *Config) { c.Mem.DRAMBanks = 0 },
		func(c *Config) { c.Mem.DRAMBanks = 6 },
		func(c *Config) { c.Mem.DRAMCycles = 0 },
		func(c *Config) { c.Mem.DRAMCycles = -100 },
		func(c *Config) { c.Mem.DRAMBankBusy = 0 },
		func(c *Config) { c.Mem.BusBytesPerCycle = 0 },
		func(c *Config) { c.Mem.BusBytesPerCycle = 4 },  // under one channel
		func(c *Config) { c.Mem.BusBytesPerCycle = 12 }, // a channel and a half
		func(c *Config) { c.L1D.BankBytes = 0 },         // 8 banks of no width
		func(c *Config) { c.L1D.BankBytes = -4 },
		func(c *Config) { c.Mem.BusRequestCycles = 0 },
		func(c *Config) { c.Mem.OffChipPenalty = -1 },
		func(c *Config) { c.Mem.CacheToCacheCycles = -1 },
		func(c *Config) { c.CPU.FetchBytes = 0 },
		func(c *Config) { c.CPU.FetchBytes = 3 }, // under one instruction
		func(c *Config) { c.CPU.FetchBufEntries = 0 },
		func(c *Config) { c.CPU.RSEEntries = 0 },
		func(c *Config) { c.CPU.RSFEntries = 0 },
		func(c *Config) { c.CPU.RSAEntries = 0 },
		func(c *Config) { c.CPU.RSBREntries = 0 },
		func(c *Config) { c.CPU.IntRenameRegs = 0 },
		func(c *Config) { c.CPU.FPRenameRegs = -1 },
		func(c *Config) { c.CPU.ForwardDelay = -1 },
		func(c *Config) { c.CPU.MispredictRedirect = -2 },
		func(c *Config) { c.CPU.StoreForwardCycles = -1 },
		func(c *Config) { c.CPU.SpecialPenalty = -1 },
		func(c *Config) { c.CPU.FetchPipeStages = -1 },
		func(c *Config) { c.CPU.Latencies[isa.IntMul].Cycles = -1 },
	}
	for i, mutate := range cases {
		c := Base()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
}

// TestVariantsValidate: every preset and study variant is a valid machine.
func TestVariantsValidate(t *testing.T) {
	base := Base()
	for _, c := range []Config{
		base,
		base.WithCPUs(16),
		base.WithIssueWidth(2),
		base.WithSmallBHT(),
		base.WithSmallL1(),
		base.WithL1Capacity(32<<10, 2),
		base.WithOffChipL2(1),
		base.WithOffChipL2(2),
		base.WithoutPrefetch(),
		base.WithOneRS(),
		base.WithPerfect(Perfect{Branch: true}),
		base.WithFidelity(FullFidelity(), false),
		base.WithFidelity(Fidelity{FlatMemory: true, FlatMemoryCycles: 100}, false),
		base.WithCPUs(16).WithSmallBHT().WithSmallL1().WithoutPrefetch(),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestTLBGeometryValidate: up to 16 entries any count is valid (fully
// associative); above that the 8-way set count must be a power of two.
// With the prefetcher off its table geometry is not checked.
func TestTLBGeometryValidate(t *testing.T) {
	for _, n := range []int{1, 2, 6, 16, 32, 64, 256, 1024} {
		if err := (TLBGeometry{Entries: n, PageBytes: 8 << 10}).Validate(); err != nil {
			t.Errorf("%d entries: %v", n, err)
		}
	}
	for _, n := range []int{-8, 0, 17, 24, 48, 100} {
		if (TLBGeometry{Entries: n, PageBytes: 8 << 10}).Validate() == nil {
			t.Errorf("%d entries accepted", n)
		}
	}
	c := Base().WithoutPrefetch()
	c.Mem.PrefetchDegree, c.Mem.PrefetchTableEntries = 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("prefetcher off: %v", err)
	}
}

func TestCacheGeometrySets(t *testing.T) {
	g := CacheGeometry{SizeBytes: 128 << 10, Ways: 2, LineBytes: 64, HitCycles: 4}
	if got := g.Sets(); got != 1024 {
		t.Errorf("Sets = %d, want 1024", got)
	}
}

func TestFullFidelity(t *testing.T) {
	f := FullFidelity()
	if f.FlatMemory || !f.BHTBubbles || !f.BankConflicts || !f.TLBModeled ||
		!f.BusContention || !f.CoherenceTiming {
		t.Errorf("FullFidelity = %+v", f)
	}
}
