package cpu

import (
	"reflect"
	"testing"

	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

// fakePort is a fixed-latency stand-in for the system beyond the L2.
type fakePort struct {
	latency    uint64
	fetches    int
	upgrades   int
	writebacks int
}

func (f *fakePort) FetchLine(_ int, _ uint64, exclusive bool, cycle uint64) (uint64, cache.State) {
	f.fetches++
	st := cache.Exclusive
	if exclusive {
		st = cache.Modified
	}
	return cycle + f.latency, st
}
func (f *fakePort) Upgrade(_ int, _ uint64, cycle uint64) uint64 {
	f.upgrades++
	return cycle + 10
}
func (f *fakePort) Writeback(_, _ uint64) { f.writebacks++ }

// testConfig returns the base machine with warmup disabled and cache/TLB/
// branch interference removed, so each microbenchmark isolates the core
// behavior it asserts on. Tests that exercise the memory path switch the
// relevant Perfect knob back off.
func testConfig() config.Config {
	cfg := config.Base()
	cfg.WarmupInsts = 0
	cfg.Perfect.Branch = true
	cfg.Perfect.TLB = true
	cfg.Perfect.L1 = true
	return cfg
}

// runTrace executes recs to completion and returns the CPU.
func runTrace(t *testing.T, cfg config.Config, recs []trace.Record) *CPU {
	t.Helper()
	port := &fakePort{latency: 100}
	chip := NewChipMem(&cfg, 0, port)
	c := New(&cfg, 0, chip, trace.NewSliceSource(recs))
	for cycle := uint64(0); !c.Done(); cycle++ {
		if cycle > 2_000_000 {
			t.Fatalf("deadlock: %v", c)
		}
		c.Tick(cycle)
	}
	return c
}

func alu(pc uint64, dst, src uint8) trace.Record {
	return trace.Record{PC: pc, Op: isa.IntALU, Dst: dst, Src1: src, Src2: isa.RegNone}
}

// nops returns independent ALU ops looping over a 2KB hot code region so
// the I-cache warms (the tests measure core behavior, not cold-code fetch).
func nops(n int, startPC uint64) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = trace.Record{PC: startPC + uint64(4*(i%512)), Op: isa.IntALU,
			Dst: uint8(8 + i%16), Src1: isa.RegNone, Src2: isa.RegNone}
	}
	return out
}

// A long chain of dependent single-cycle ALU ops must sustain ~1 IPC
// (back-to-back forwarding), never more.
func TestDependentChainIPC(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, alu(uint64(0x1000+4*(i%512)), uint8(8+(i+1)%16), uint8(8+i%16)))
	}
	c := runTrace(t, testConfig(), recs)
	ipc := c.Stats.IPC()
	if ipc < 0.85 || ipc > 1.01 {
		t.Errorf("dependent-chain IPC = %.3f, want ~1", ipc)
	}
}

// Independent ALU ops are bounded by the two EX units, not the 4-wide
// issue.
func TestIndependentALUThroughput(t *testing.T) {
	recs := nops(4000, 0x1000)
	c := runTrace(t, testConfig(), recs)
	ipc := c.Stats.IPC()
	if ipc < 1.7 || ipc > 2.05 {
		t.Errorf("independent ALU IPC = %.3f, want ~2 (two EX units)", ipc)
	}
}

// Mixed int and FP independent work can exceed 2 IPC by using EX and FL
// units together.
func TestMixedUnitThroughput(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			recs = append(recs, alu(uint64(0x1000+4*(i%512)), uint8(8+i%8), isa.RegNone))
		} else {
			recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.FPAdd,
				Dst: uint8(int(isa.FPRegBase) + 4 + i%8), Src1: isa.RegNone, Src2: isa.RegNone})
		}
	}
	c := runTrace(t, testConfig(), recs)
	if ipc := c.Stats.IPC(); ipc < 2.5 {
		t.Errorf("mixed-unit IPC = %.3f, want > 2.5", ipc)
	}
}

// FP latency shows up in a dependent FP chain: ~1/latency IPC.
func TestFPChainLatency(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.FPMulAdd,
			Dst:  uint8(int(isa.FPRegBase) + 4 + (i+1)%8),
			Src1: uint8(int(isa.FPRegBase) + 4 + i%8), Src2: isa.RegNone})
	}
	c := runTrace(t, testConfig(), recs)
	lat := float64(config.Base().CPU.Latencies[isa.FPMulAdd].Cycles)
	ipc := c.Stats.IPC()
	want := 1 / lat
	if ipc < want*0.8 || ipc > want*1.2 {
		t.Errorf("FP chain IPC = %.3f, want ~%.3f", ipc, want)
	}
}

// Loads that hit the L1 deliver to dependents after the hit latency.
func TestLoadUseLatency(t *testing.T) {
	cfg := testConfig()
	// One load (warmed line) followed by a dependent chain; measure that a
	// load->use->load chain is paced by hit latency + overheads.
	var recs []trace.Record
	// Warm the line first with an untimed pass (same trace twice; second
	// pass hits).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 500; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*i), Op: isa.Load,
				EA: 0x100000, Size: 8, Dst: 8, Src1: 8, Src2: isa.RegNone})
		}
	}
	c := runTrace(t, cfg, recs)
	// Each load's address depends on the previous load: serialized at
	// roughly hit latency + issue overhead per load.
	cpi := 1 / c.Stats.IPC()
	if cpi < float64(cfg.L1D.HitCycles) || cpi > float64(cfg.L1D.HitCycles)+4 {
		t.Errorf("chained-load CPI = %.2f, want ~%d+overheads", cpi, cfg.L1D.HitCycles)
	}
}

// Speculative dispatch: on an all-hit workload it beats the conservative
// machine; on misses it produces cancels.
func TestSpeculativeDispatch(t *testing.T) {
	mk := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 3000; i++ {
			// load -> dependent ALU, loads all hit after warmup (one line).
			recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%256)), Op: isa.Load,
				EA: 0x100000 + uint64(i%8)*8, Size: 8, Dst: 8, Src1: isa.RegNone, Src2: isa.RegNone})
			recs = append(recs, alu(uint64(0x1004+8*(i%256)), 9, 8))
		}
		return recs
	}
	cfgSpec := testConfig()
	cfgNoSpec := testConfig()
	cfgNoSpec.CPU.SpeculativeDispatch = false
	spec := runTrace(t, cfgSpec, mk())
	noSpec := runTrace(t, cfgNoSpec, mk())
	if spec.Stats.IPC() <= noSpec.Stats.IPC() {
		t.Errorf("speculative dispatch IPC %.3f not above conservative %.3f",
			spec.Stats.IPC(), noSpec.Stats.IPC())
	}
	if spec.Stats.SpecCancels > 4 {
		t.Errorf("nearly-all-hit run produced %d cancels (cold misses only expected)",
			spec.Stats.SpecCancels)
	}
	if noSpec.Stats.SpecCancels != 0 {
		t.Errorf("conservative run produced %d cancels", noSpec.Stats.SpecCancels)
	}
}

func TestSpeculativeDispatchCancelsOnMisses(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 800; i++ {
		// Every load misses (new line each time) and feeds a dependent.
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%256)), Op: isa.Load,
			EA: uint64(0x100000 + i*4096), Size: 8, Dst: 8, Src1: isa.RegNone, Src2: isa.RegNone})
		recs = append(recs, alu(uint64(0x1004+8*(i%256)), 9, 8))
	}
	cfg := testConfig()
	cfg.Perfect.L1 = false
	c := runTrace(t, cfg, recs)
	if c.Stats.SpecCancels == 0 {
		t.Error("all-miss run produced no speculative cancels")
	}
}

// A mispredicted branch must cost far more than a correctly predicted one.
func TestMispredictPenalty(t *testing.T) {
	// A tight loop with one branch: "good" takes it every iteration (the
	// 2-bit counter trains perfectly); "bad" alternates (the counter is
	// always wrong in one direction).
	mk := func(alternate bool) []trace.Record {
		var recs []trace.Record
		for i := 0; i < 2000; i++ {
			recs = append(recs, alu(0x1000, 8, isa.RegNone))
			tk := !alternate || i%2 == 0
			rec := trace.Record{PC: 0x1004, Op: isa.Branch, Taken: tk,
				Dst: isa.RegNone, Src1: 8, Src2: isa.RegNone}
			if tk {
				rec.EA = 0x1000
			}
			recs = append(recs, rec)
		}
		return recs
	}
	cfg := testConfig()
	cfg.Perfect.Branch = false
	good := runTrace(t, cfg, mk(false))
	cfg2 := testConfig()
	cfg2.Perfect.Branch = false
	bad := runTrace(t, cfg2, mk(true))
	if bad.Stats.IPC() >= good.Stats.IPC()*0.8 {
		t.Errorf("mispredicting run IPC %.3f not clearly below predictable %.3f",
			bad.Stats.IPC(), good.Stats.IPC())
	}
	if bad.pred.Stats.Mispredicts() == 0 {
		t.Error("alternating branches produced no mispredicts")
	}
}

// Perfect branch mode removes all branch costs.
func TestPerfectBranch(t *testing.T) {
	var recs []trace.Record
	pc := uint64(0x1000)
	for i := 0; i < 1000; i++ {
		tgt := pc + 8
		recs = append(recs, trace.Record{PC: pc, Op: isa.Branch, Taken: true, EA: tgt,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		pc = tgt
	}
	cfg := testConfig() // Perfect.Branch = true
	c := runTrace(t, cfg, recs)
	if c.Stats.FetchStallBranch != 0 || c.Stats.FetchBubbles != 0 {
		t.Errorf("perfect branch still stalled: %+v", c.Stats)
	}
}

// Store queue capacity throttles store bursts.
func TestStoreDrain(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.Store,
			EA: 0x200000 + uint64(i%64)*8, Size: 8,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
	}
	c := runTrace(t, testConfig(), recs)
	if c.Stats.StoresDrained != 500 {
		t.Errorf("drained %d stores, want 500", c.Stats.StoresDrained)
	}
	if c.Stats.StallSQ == 0 {
		t.Error("a pure store burst should hit the 10-entry store queue limit")
	}
}

// Bank conflicts appear when two same-cycle accesses map to one bank and
// disappear under the bank-conflict-free fidelity.
func TestBankConflicts(t *testing.T) {
	mk := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 2000; i++ {
			// Pairs of independent loads to the same bank (same 4-byte
			// offset in different lines of one warmed page).
			recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%256)), Op: isa.Load,
				EA: 0x100000 + uint64(i%4)*256, Size: 8, Dst: uint8(8 + i%4), Src1: isa.RegNone, Src2: isa.RegNone})
		}
		return recs
	}
	cfg := testConfig()
	with := runTrace(t, cfg, mk())
	cfg2 := testConfig()
	cfg2.Fidelity.BankConflicts = false
	without := runTrace(t, cfg2, mk())
	if with.Stats.BankConflicts == 0 {
		t.Error("same-bank load pairs produced no conflicts")
	}
	if without.Stats.BankConflicts != 0 {
		t.Error("fidelity switch did not disable bank conflicts")
	}
}

// The 64-entry window limits memory-level parallelism under long misses.
func TestWindowStall(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 300; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 16*(i%128)), Op: isa.Load,
			EA: uint64(0x100000 + i*4096), Size: 8, Dst: 8, Src1: isa.RegNone, Src2: isa.RegNone})
		for j := 0; j < 3; j++ {
			recs = append(recs, alu(uint64(0x1004+16*(i%128)+4*j), uint8(10+j), 8))
		}
	}
	cfg := testConfig()
	cfg.Perfect.L1 = false
	c := runTrace(t, cfg, recs)
	if c.Stats.StallWindow == 0 && c.Stats.StallRS == 0 && c.Stats.StallLQ == 0 {
		t.Error("miss-heavy run hit no backpressure at all")
	}
}

// Crude special-instruction modeling serializes and costs far more than
// detailed modeling (the paper's v5 fidelity event, Figure 19).
func TestSpecialInstructionFidelity(t *testing.T) {
	mk := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 500; i++ {
			recs = append(recs, alu(uint64(0x1000+12*(i%128)), 8, isa.RegNone))
			recs = append(recs, trace.Record{PC: uint64(0x1004 + 12*(i%128)), Op: isa.Special,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
			recs = append(recs, alu(uint64(0x1008+12*(i%128)), 9, isa.RegNone))
		}
		return recs
	}
	detailed := runTrace(t, testConfig(), mk())
	cfg := testConfig()
	cfg.CPU.SpecialDetailed = false
	crude := runTrace(t, cfg, mk())
	if crude.Stats.IPC() >= detailed.Stats.IPC()*0.7 {
		t.Errorf("crude special IPC %.3f not well below detailed %.3f",
			crude.Stats.IPC(), detailed.Stats.IPC())
	}
	if crude.Stats.SpecialSerialized != 500 {
		t.Errorf("SpecialSerialized = %d", crude.Stats.SpecialSerialized)
	}
}

// Data forwarding: disabling it slows dependent chains.
func TestDataForwardingAblation(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, alu(uint64(0x1000+4*(i%512)), uint8(8+(i+1)%16), uint8(8+i%16)))
	}
	withFwd := runTrace(t, testConfig(), recs)
	cfg := testConfig()
	cfg.CPU.DataForwarding = false
	withoutFwd := runTrace(t, cfg, recs)
	if withoutFwd.Stats.IPC() >= withFwd.Stats.IPC() {
		t.Errorf("no-forwarding IPC %.3f not below forwarding %.3f",
			withoutFwd.Stats.IPC(), withFwd.Stats.IPC())
	}
}

// Issue width 2 must be slower than 4 on parallel work that spreads across
// unit classes (pure-int work is already bounded by the two EX units).
func TestIssueWidthEffect(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 4000; i++ {
		pc := uint64(0x1000 + 4*(i%512))
		switch i % 4 {
		case 0, 1:
			recs = append(recs, alu(pc, uint8(8+i%8), isa.RegNone))
		default:
			recs = append(recs, trace.Record{PC: pc, Op: isa.FPAdd,
				Dst: uint8(int(isa.FPRegBase) + 4 + i%8), Src1: isa.RegNone, Src2: isa.RegNone})
		}
	}
	four := runTrace(t, testConfig(), recs)
	cfg := testConfig().WithIssueWidth(2)
	cfg.WarmupInsts = 0
	two := runTrace(t, cfg, recs)
	if two.Stats.IPC() >= four.Stats.IPC() {
		t.Errorf("2-wide IPC %.3f not below 4-wide %.3f", two.Stats.IPC(), four.Stats.IPC())
	}
	if two.Stats.IPC() > 2.01 {
		t.Errorf("2-wide IPC %.3f exceeds issue width", two.Stats.IPC())
	}
}

// The OneRS topology must not be slower than 2RS (flexible dispatch),
// matching Figure 18's direction.
func TestOneRSNotSlower(t *testing.T) {
	// Bursty pattern: pairs of ready ALU ops that can collide in one RS.
	var recs []trace.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, alu(uint64(0x1000+4*(i%512)), uint8(8+i%4), uint8(8+(i+2)%4)))
	}
	twoRS := runTrace(t, testConfig(), recs)
	cfg := testConfig().WithOneRS()
	cfg.WarmupInsts = 0
	oneRS := runTrace(t, cfg, recs)
	if oneRS.Stats.IPC() < twoRS.Stats.IPC()*0.98 {
		t.Errorf("1RS IPC %.3f below 2RS %.3f", oneRS.Stats.IPC(), twoRS.Stats.IPC())
	}
}

// Warmup resets statistics.
func TestWarmupReset(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupInsts = 1000
	recs := nops(3000, 0x1000)
	c := runTrace(t, cfg, recs)
	if c.Stats.Committed != 2000 {
		t.Errorf("post-warmup Committed = %d, want 2000", c.Stats.Committed)
	}
}

// Done must become true exactly when everything drains, and ticking a done
// CPU is harmless.
func TestDoneAndIdleTick(t *testing.T) {
	c := runTrace(t, testConfig(), nops(10, 0x1000))
	if !c.Done() {
		t.Fatal("not done after drain")
	}
	cycles := c.Stats.Cycles
	c.Tick(999999)
	if c.Stats.Cycles != cycles {
		t.Error("ticking a done CPU advanced stats")
	}
}

// A load immediately after an overlapping store must be satisfied by
// store-queue bypass: no cache access, forwarding latency applied.
func TestStoreToLoadForwarding(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		addr := 0x200000 + uint64(i%16)*64
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%256)), Op: isa.Store,
			EA: addr, Size: 8, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		recs = append(recs, trace.Record{PC: uint64(0x1004 + 8*(i%256)), Op: isa.Load,
			EA: addr, Size: 8, Dst: 8, Src1: isa.RegNone, Src2: isa.RegNone})
	}
	c := runTrace(t, testConfig(), recs)
	if c.Stats.StoreForwards == 0 {
		t.Fatal("no store-to-load forwards on store/load pairs")
	}
	// Forwarded loads never touch the cache: with forwarding disabled the
	// same trace performs more cache accesses.
	cfg := testConfig()
	cfg.CPU.StoreForwarding = false
	c2 := runTrace(t, cfg, recs)
	if c2.Stats.StoreForwards != 0 {
		t.Fatal("forwarding fired while disabled")
	}
	if c.Stats.IPC() < c2.Stats.IPC()*0.95 {
		t.Errorf("forwarding IPC %.3f well below non-forwarding %.3f",
			c.Stats.IPC(), c2.Stats.IPC())
	}
}

// Forwarding must not fire for non-overlapping addresses.
func TestStoreForwardNoFalsePositives(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%256)), Op: isa.Store,
			EA: 0x200000 + uint64(i%16)*64, Size: 8,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		recs = append(recs, trace.Record{PC: uint64(0x1004 + 8*(i%256)), Op: isa.Load,
			EA: 0x300000 + uint64(i%16)*64, Size: 8, Dst: 8,
			Src1: isa.RegNone, Src2: isa.RegNone})
	}
	c := runTrace(t, testConfig(), recs)
	if c.Stats.StoreForwards != 0 {
		t.Fatalf("%d spurious forwards", c.Stats.StoreForwards)
	}
}

// The online CPI stack must attribute every zero-commit cycle, and a
// memory-bound run must attribute mostly to memory.
func TestZeroCommitAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect.L1 = false
	var recs []trace.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 8*(i%128)), Op: isa.Load,
			EA: uint64(0x400000 + i*4096), Size: 8, Dst: 8, Src1: 8, Src2: isa.RegNone})
	}
	c := runTrace(t, cfg, recs)
	st := &c.Stats
	zero := st.ZeroCommitFrontend + st.ZeroCommitMemory + st.ZeroCommitExecute +
		st.ZeroCommitRS + st.ZeroCommitSpec
	// Every cycle either committed something or was attributed.
	if zero == 0 || zero > st.Cycles {
		t.Fatalf("zero-commit cycles %d of %d", zero, st.Cycles)
	}
	if st.ZeroCommitMemory < zero/2 {
		t.Errorf("dependent-miss chain attributed %d/%d to memory", st.ZeroCommitMemory, zero)
	}
}

// Two FL units must outperform one on independent multiply-add streams —
// the paper's dual-FMA HPC argument.
func TestDualFMAUnits(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.FPMulAdd,
			Dst: uint8(int(isa.FPRegBase) + 4 + i%16), Src1: isa.RegNone, Src2: isa.RegNone})
	}
	two := runTrace(t, testConfig(), recs)
	cfg := testConfig()
	cfg.CPU.FPUnits = 1
	one := runTrace(t, cfg, recs)
	if two.Stats.IPC() < one.Stats.IPC()*1.5 {
		t.Errorf("dual FMA IPC %.3f not well above single %.3f",
			two.Stats.IPC(), one.Stats.IPC())
	}
	if one.Stats.IPC() > 1.05 {
		t.Errorf("single FL unit IPC %.3f exceeds its throughput bound", one.Stats.IPC())
	}
}

// Deep call chains overflow the 8-entry RAS; returns beyond its depth must
// mispredict while shallow ones stay predicted.
func TestRASOverflowMispredicts(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect.Branch = false
	var recs []trace.Record
	// 12 nested calls (deeper than the RAS), then 12 returns, repeated.
	const depth = 12
	for rep := 0; rep < 50; rep++ {
		for d := 0; d < depth; d++ {
			pc := uint64(0x1000 + 16*d)
			recs = append(recs, trace.Record{PC: pc, Op: isa.Call, Taken: true,
				EA: pc + 16, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
		for d := depth - 1; d >= 0; d-- {
			pc := uint64(0x1000 + 16*depth + 16*(depth-1-d))
			recs = append(recs, trace.Record{PC: pc, Op: isa.Return, Taken: true,
				EA: uint64(0x1000 + 16*d + 4), Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
	}
	// Control flow here is synthetic (record PCs drive fetch directly).
	c := runTrace(t, cfg, recs)
	if c.pred.Stats.ReturnMispredicts == 0 {
		t.Fatal("RAS overflow produced no return mispredicts")
	}
	if c.pred.Stats.ReturnMispredicts >= c.pred.Stats.Returns {
		t.Fatal("every return mispredicted: RAS not working at all")
	}
}

// Matched call/return pairs within the RAS depth must never mispredict:
// the fetch stage pushes call PC + isa.InstrBytes and the trace's return
// EA points exactly there. This pins the push/pop round trip end to end
// through the pipeline, not just at the predictor API.
func TestRASCallReturnRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect.Branch = false
	var recs []trace.Record
	const depth = 6 // within the 8-entry RAS
	for rep := 0; rep < 50; rep++ {
		for d := 0; d < depth; d++ {
			pc := uint64(0x1000 + 16*d)
			recs = append(recs, trace.Record{PC: pc, Op: isa.Call, Taken: true,
				EA: pc + 16, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
		for d := depth - 1; d >= 0; d-- {
			pc := uint64(0x1000 + 16*depth + 16*(depth-1-d))
			recs = append(recs, trace.Record{PC: pc, Op: isa.Return, Taken: true,
				EA:  uint64(0x1000+16*d) + isa.InstrBytes,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
		}
	}
	c := runTrace(t, cfg, recs)
	if c.pred.Stats.Returns == 0 {
		t.Fatal("no returns reached the predictor")
	}
	if n := c.pred.Stats.ReturnMispredicts; n != 0 {
		t.Fatalf("%d/%d matched returns mispredicted", n, c.pred.Stats.Returns)
	}
}

// The 32-entry integer rename bound must be the limiting stall on a window
// full of long-latency int producers.
func TestRenameLimit(t *testing.T) {
	cfg := testConfig()
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.IntDiv,
			Dst: uint8(8 + i%20), Src1: isa.RegNone, Src2: isa.RegNone})
	}
	c := runTrace(t, cfg, recs)
	if c.Stats.StallRename == 0 && c.Stats.StallRS == 0 {
		t.Error("divide storm produced no rename/RS backpressure")
	}
	// Non-pipelined divides on two units bound throughput at 2/latency.
	maxIPC := 2.0 / float64(cfg.CPU.Latencies[isa.IntDiv].Cycles)
	if ipc := c.Stats.IPC(); ipc > maxIPC*1.2 {
		t.Errorf("divide IPC %.4f exceeds unit bound %.4f", ipc, maxIPC)
	}
}

// The 16-entry load queue bounds outstanding loads.
func TestLoadQueueLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect.L1 = false
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.Load,
			EA: uint64(0x500000 + i*4096), Size: 8,
			Dst: uint8(8 + i%16), Src1: isa.RegNone, Src2: isa.RegNone})
	}
	c := runTrace(t, cfg, recs)
	if c.Stats.StallLQ == 0 {
		t.Error("all-miss load storm never filled the load queue")
	}
}

// TLB misses add their penalty: a page-sparse access pattern must run
// slower with the TLB modeled than with a perfect TLB.
func TestTLBPenaltyVisible(t *testing.T) {
	mk := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 3000; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x1000 + 4*(i%512)), Op: isa.Load,
				EA: uint64(0x10000000 + (i%4096)*8192), Size: 8,
				Dst: uint8(8 + i%16), Src1: isa.RegNone, Src2: isa.RegNone})
		}
		return recs
	}
	cfg := testConfig() // perfect TLB
	perfect := runTrace(t, cfg, mk())
	cfg2 := testConfig()
	cfg2.Perfect.TLB = false
	real := runTrace(t, cfg2, mk())
	if real.Stats.IPC() >= perfect.Stats.IPC() {
		t.Errorf("TLB-modeled IPC %.3f not below perfect-TLB %.3f",
			real.Stats.IPC(), perfect.Stats.IPC())
	}
	if real.Mem.TLBStallCycles == 0 {
		t.Error("no TLB stall cycles recorded")
	}
}

// TestCountersRoundTrip gives every leaf of a Counters a distinct value,
// writes it and reads it back: a field the reader or the writer leaves out
// reads back as zero. The warm-up reset then goes through the same writer.
func TestCountersRoundTrip(t *testing.T) {
	cfg := config.Base()
	c := New(&cfg, 0, NewChipMem(&cfg, 0, &fakePort{}), trace.NewSliceSource(nil))
	var want Counters
	n := uint64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			n++
			v.SetUint(n)
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := range v.Len() {
				fill(v.Index(i))
			}
		default:
			t.Fatalf("Counters leaf of kind %s", v.Kind())
		}
	}
	fill(reflect.ValueOf(&want).Elem())
	c.setCounters(want)
	if got := c.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v,\nwrote %+v", got, want)
	}
	c.resetMeasurement()
	if got, want := c.Counters(), (Counters{Core: Stats{Cycles: 1}}); !reflect.DeepEqual(got, want) {
		t.Errorf("after the warm-up reset read %+v, want %+v", got, want)
	}
}
