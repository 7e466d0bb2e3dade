package workload

import (
	"testing"

	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

func drain(g *Gen, n int) []trace.Record {
	out := make([]trace.Record, n)
	var r trace.Record
	for i := 0; i < n; i++ {
		if !g.Next(&r) {
			t := out[:i]
			return t
		}
		out[i] = r
	}
	return out
}

func TestDeterminism(t *testing.T) {
	a := New(SPECint95(), 7, 0)
	b := New(SPECint95(), 7, 0)
	ra, rb := drain(a, 5000), drain(b, 5000)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	c := New(SPECint95(), 8, 0)
	rc := drain(c, 5000)
	same := 0
	for i := range rc {
		if rc[i] == ra[i] {
			same++
		}
	}
	if same == len(rc) {
		t.Error("different seeds produced identical traces")
	}
}

func TestRecordsValid(t *testing.T) {
	for _, p := range append(UPProfiles(), TPCC16P()) {
		g := New(p, 1, 0)
		var r trace.Record
		for i := 0; i < 20000; i++ {
			if !g.Next(&r) {
				t.Fatalf("%s: source ended", p.Name)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s record %d: %v (%+v)", p.Name, i, err, r)
			}
		}
		if g.emitted != 20000 {
			t.Errorf("%s: emitted = %d", p.Name, g.emitted)
		}
	}
}

// Instruction-class mix should be in the neighborhood of the profile's Mix
// (branches and calls dilute it, so the tolerance is loose).
func TestMixApproximatelyHonored(t *testing.T) {
	for _, p := range UPProfiles() {
		g := New(p, 3, 0)
		recs := drain(g, 200000)
		counts := map[isa.Class]int{}
		for _, r := range recs {
			counts[r.Op]++
		}
		n := float64(len(recs))
		loadFrac := float64(counts[isa.Load]) / n
		if loadFrac < 0.10 || loadFrac > 0.40 {
			t.Errorf("%s: load fraction %.3f out of plausible range", p.Name, loadFrac)
		}
		brFrac := float64(counts[isa.Branch]+counts[isa.Call]+counts[isa.Return]) / n
		if brFrac < 0.03 || brFrac > 0.35 {
			t.Errorf("%s: branch fraction %.3f out of plausible range", p.Name, brFrac)
		}
		// FP workloads must contain FP work; integer ones must not.
		fp := counts[isa.FPAdd] + counts[isa.FPMul] + counts[isa.FPMulAdd]
		if p.Name == "SPECfp95" || p.Name == "SPECfp2000" {
			if float64(fp)/n < 0.15 {
				t.Errorf("%s: FP fraction %.3f too low", p.Name, float64(fp)/n)
			}
		} else if fp > 0 && float64(fp)/n > 0.01 {
			t.Errorf("%s: unexpected FP fraction %.3f", p.Name, float64(fp)/n)
		}
	}
}

// Block lengths imply branch spacing: FP profiles have much longer blocks.
func TestBlockStructure(t *testing.T) {
	intRecs := drain(New(SPECint95(), 1, 0), 100000)
	fpRecs := drain(New(SPECfp95(), 1, 0), 100000)
	brSpacing := func(recs []trace.Record) float64 {
		br := 0
		for _, r := range recs {
			if r.Op.IsBranch() {
				br++
			}
		}
		return float64(len(recs)) / float64(br)
	}
	si, sf := brSpacing(intRecs), brSpacing(fpRecs)
	if sf < si*1.8 {
		t.Errorf("FP branch spacing %.1f not much larger than int %.1f", sf, si)
	}
}

// PCs must be 4-byte aligned, stable per class (a given PC always has the
// same class), and control flow must be consistent: the next record's PC
// equals NextPC() of the previous one.
func TestControlFlowConsistency(t *testing.T) {
	for _, p := range []Profile{SPECint95(), TPCC()} {
		g := New(p, 11, 0)
		recs := drain(g, 150000)
		classAt := map[uint64]isa.Class{}
		for i, r := range recs {
			if r.PC%4 != 0 {
				t.Fatalf("%s: unaligned PC %#x", p.Name, r.PC)
			}
			if c, ok := classAt[r.PC]; ok && c != r.Op {
				t.Fatalf("%s: PC %#x class changed %v -> %v", p.Name, r.PC, c, r.Op)
			}
			classAt[r.PC] = r.Op
			if i > 0 {
				want := recs[i-1].NextPC()
				if r.PC != want {
					t.Fatalf("%s: record %d PC=%#x, want %#x after %v",
						p.Name, i, r.PC, want, recs[i-1])
				}
			}
		}
	}
}

// The TPC-C static code footprint must far exceed SPECint95's, and its
// distinct-PC working set must actually show up in the trace.
func TestCodeFootprints(t *testing.T) {
	tp, si := TPCC(), SPECint95()
	codeBytes := func(p Profile) int {
		return p.NumFuncs * p.BlocksPerFunc * p.BlockLen * isa.InstrBytes
	}
	if codeBytes(tp) < 16*codeBytes(si) {
		t.Errorf("TPC-C code %d not ≫ SPECint95 code %d", codeBytes(tp), codeBytes(si))
	}
	g := New(tp, 5, 0)
	recs := drain(g, 300000)
	pcs := map[uint64]struct{}{}
	for _, r := range recs {
		pcs[r.PC] = struct{}{}
	}
	if len(pcs)*4 < 128<<10 {
		t.Errorf("TPC-C dynamic code footprint only %d bytes", len(pcs)*4)
	}
}

// Chain regions must produce load->load dependencies (src of the next chain
// load equals dst of a previous chain load).
func TestChainDependencies(t *testing.T) {
	p := Profile{
		Name:     "chain-only",
		Mix:      map[isa.Class]float64{isa.IntALU: 0.3, isa.Load: 0.7},
		NumFuncs: 2, BlocksPerFunc: 4, BlockLen: 8,
		LoopIterMean: 50, ZipfS: 1, BiasedFrac: 1, BiasedTaken: 0.95,
		Regions:     []Region{{Kind: Chain, Weight: 1, Bytes: 1 << 20, Streams: 1}},
		DepDistMean: 2, MaxCallDepth: 4,
	}
	g := New(p, 2, 0)
	recs := drain(g, 5000)
	var lastChainDst uint8 = isa.RegNone
	deps := 0
	for _, r := range recs {
		if r.Op == isa.Load {
			if lastChainDst != isa.RegNone && r.Src1 == lastChainDst {
				deps++
			}
			if isa.IsIntReg(r.Dst) {
				lastChainDst = r.Dst
			}
		}
	}
	if deps < 100 {
		t.Errorf("only %d chained load dependencies observed", deps)
	}
}

// Stream regions advance sequentially.
func TestStreamAddresses(t *testing.T) {
	p := Profile{
		Name:     "stream-only",
		Mix:      map[isa.Class]float64{isa.IntALU: 0.3, isa.Load: 0.7},
		NumFuncs: 2, BlocksPerFunc: 4, BlockLen: 8,
		LoopIterMean: 50, ZipfS: 1, BiasedFrac: 1, BiasedTaken: 0.95,
		Regions:     []Region{{Kind: Stream, Weight: 1, Bytes: 1 << 20, StrideBytes: 8, Streams: 1}},
		DepDistMean: 2, MaxCallDepth: 4,
	}
	g := New(p, 2, 0)
	recs := drain(g, 2000)
	var prev uint64
	increasing, total := 0, 0
	for _, r := range recs {
		if r.Op != isa.Load {
			continue
		}
		if prev != 0 && r.EA == prev+8 {
			increasing++
		}
		prev = r.EA
		total++
	}
	if total == 0 || float64(increasing)/float64(total) < 0.9 {
		t.Errorf("stream not sequential: %d/%d strided", increasing, total)
	}
}

// MP generators must share only the Shared region.
func TestMPSharing(t *testing.T) {
	gens := NewMP(TPCC16P(), 9, 4)
	if len(gens) != 4 {
		t.Fatalf("NewMP returned %d gens", len(gens))
	}
	seen := make([]map[uint64]struct{}, 4)
	for i, g := range gens {
		seen[i] = map[uint64]struct{}{}
		for _, r := range drain(g, 100000) {
			if r.Op.IsMemory() {
				seen[i][r.EA>>6] = struct{}{}
			}
		}
	}
	shared, private := 0, 0
	for line := range seen[0] {
		if _, ok := seen[1][line]; ok {
			shared++
		} else {
			private++
		}
	}
	if shared == 0 {
		t.Error("no shared lines between CPU 0 and CPU 1")
	}
	if private == 0 {
		t.Error("no private lines: CPUs alias completely")
	}
	// All shared lines must be in the shared region.
	for line := range seen[0] {
		if _, ok := seen[1][line]; ok {
			addr := line << 6
			if addr < sharedBase || addr >= sharedBase+uint64(TPCC16P().SharedBytes) {
				t.Fatalf("shared line %#x outside shared region", addr)
			}
		}
	}
}

// Without a shared region, distinct CPUs never overlap.
func TestMPPrivateDisjoint(t *testing.T) {
	gens := NewMP(SPECint95(), 9, 2)
	a, b := map[uint64]struct{}{}, map[uint64]struct{}{}
	for _, r := range drain(gens[0], 50000) {
		if r.Op.IsMemory() {
			a[r.EA>>6] = struct{}{}
		}
	}
	for _, r := range drain(gens[1], 50000) {
		if r.Op.IsMemory() {
			b[r.EA>>6] = struct{}{}
		}
	}
	for line := range a {
		if _, ok := b[line]; ok {
			t.Fatalf("line %#x accessed by both CPUs without a shared region", line<<6)
		}
	}
}

func TestTakenBranchTargets(t *testing.T) {
	g := New(TPCC(), 13, 0)
	recs := drain(g, 100000)
	for i, r := range recs {
		if r.Op.IsBranch() && r.Taken && r.EA == 0 {
			t.Fatalf("record %d: taken branch with zero target", i)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := New(TPCC(), 1, 0)
	var r trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&r)
	}
}

// BenchmarkNewGen times building a generator's static program, the fixed
// cost every run pays per CPU before its first record.
func BenchmarkNewGen(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		New(TPCC(), 1, 0)
	}
}

// Every block's slots are carved from one arena with cap equal to len, so
// an append to one block can never write into its neighbour's slots.
func TestProgramArenaNoAlias(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		g := New(p, 1, 0)
		if len(g.blocks) != p.NumFuncs*p.BlocksPerFunc {
			t.Errorf("%s: %d blocks, want %d", name, len(g.blocks), p.NumFuncs*p.BlocksPerFunc)
		}
		for i, b := range g.blocks {
			if cap(b.slots) != len(b.slots) {
				t.Fatalf("%s block %d: cap %d != len %d", name, i, cap(b.slots), len(b.slots))
			}
		}
	}
}

// Building a generator is a fixed handful of allocations, not one per
// block: the largest static program (TPC-C, 50,000 blocks) must stay under
// the bound, single- and multi-processor.
func TestNewGenAllocs(t *testing.T) {
	const bound = 32
	for _, c := range []struct {
		p   Profile
		cpu int
	}{{TPCC(), 0}, {TPCC16P(), 3}} {
		if n := testing.AllocsPerRun(3, func() { New(c.p, 1, c.cpu) }); n > bound {
			t.Errorf("New(%s, 1, %d): %.0f allocs, want ≤ %d", c.p.Name, c.cpu, n, bound)
		}
	}
}

func TestHPCProfile(t *testing.T) {
	p := HPC()
	g := New(p, 3, 0)
	recs := drain(g, 100000)
	fmadd, mem := 0, 0
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if r.Op == isa.FPMulAdd {
			fmadd++
		}
		if r.Op.IsMemory() {
			mem++
		}
	}
	if frac := float64(fmadd) / float64(len(recs)); frac < 0.20 {
		t.Errorf("fmadd fraction %.3f too low for an FMA kernel", frac)
	}
	if mem == 0 {
		t.Error("no memory traffic")
	}
}

// A HotFuncs value larger than NumFuncs must clamp, not panic.
func TestHotFuncsClamp(t *testing.T) {
	p := TPCC()
	p.NumFuncs, p.BlocksPerFunc = 10, 8
	p.HotFuncs = 500 // > NumFuncs
	g := New(p, 1, 0)
	var r trace.Record
	for i := 0; i < 20000; i++ {
		if !g.Next(&r) {
			t.Fatal("source ended")
		}
	}
}

// The TPC-C branch working set must actually exceed the 4K BHT while
// fitting the 16K one — the precondition for the Figure 9/10 effect.
func TestTPCCBranchWorkingSet(t *testing.T) {
	g := New(TPCC(), 42, 0)
	taken := map[uint64]struct{}{}
	var r trace.Record
	for i := 0; i < 400000; i++ {
		g.Next(&r)
		if r.Op == isa.Branch && r.Taken {
			taken[r.PC] = struct{}{}
		}
	}
	if len(taken) < 4500 {
		t.Errorf("taken-branch working set %d does not pressure a 4K BHT", len(taken))
	}
	if len(taken) > 16000 {
		t.Errorf("taken-branch working set %d overwhelms even the 16K BHT", len(taken))
	}
}
