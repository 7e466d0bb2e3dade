// Package workload generates synthetic instruction traces that stand in for
// the paper's SPEC CPU95/CPU2000 and TPC-C traces.
//
// The paper generated SPEC traces with Sun's Forte compiler + Shade, and
// TPC-C traces with a Fujitsu kernel tracer on a tuned system. Neither is
// available, so we substitute statistical generators: each workload is a
// Profile describing a synthetic *static program* (basic blocks grouped
// into functions with loops and calls, each static branch with a fixed
// bias, each memory slot bound to a data region) plus the dynamic behavior
// (Zipf function popularity, loop trip counts, dependency distances). A
// deterministic walk over that program emits the trace.
//
// This preserves what the design studies actually measure: instruction mix,
// code footprint (L1I/BHT pressure), data working-set structure (L1D/L2/TLB
// pressure), branch predictability, pointer-chain vs streaming access
// (prefetchability), and MP data sharing. See DESIGN.md "Substitutions".
package workload

import (
	"strings"

	"sparc64v/internal/isa"
)

// RegionKind classifies a data region's access pattern.
type RegionKind uint8

const (
	// Stack is a small per-call-frame region; essentially always cache-hot.
	Stack RegionKind = iota
	// Random is uniform random line-granular access over the region,
	// modeling hash/index/B-tree style working sets.
	Random
	// Stream is sequential strided access (several independent streams),
	// modeling array sweeps; highly prefetchable.
	Stream
	// Chain is sequential line-by-line access where each load depends on
	// the previous one (pointer chasing a list laid out in order) — the
	// "chain access pattern of memory addresses" the paper's prefetch
	// algorithm fits.
	Chain
	// Shared is uniform random access over a region shared by all CPUs of
	// an SMP; stores to it cause coherence traffic.
	Shared
)

// Region describes one data region of a profile.
type Region struct {
	// Kind selects the access pattern.
	Kind RegionKind
	// Weight is the relative probability that a memory slot binds to this
	// region.
	Weight float64
	// Bytes is the region size.
	Bytes int64
	// StrideBytes is the stream stride (Stream only; Chain uses the line).
	StrideBytes int
	// Streams is the number of independent sequential streams (Stream/Chain).
	Streams int
	// StoreFrac is the fraction of accesses to this region that are stores
	// (overriding the slot's class would be wrong; instead the program
	// builder biases store slots toward regions with higher StoreFrac).
	StoreFrac float64
	// AliasWithCode places the region so that it occupies the same cache
	// sets as the code image in large direct-mapped caches, modeling the
	// physical-page conflicts between instruction and data working sets
	// that make direct-mapped second-level caches thrash under large
	// commercial workloads (the paper's section 4.3.3/4.3.4 argument).
	AliasWithCode bool
}

// Profile is the complete statistical description of a workload.
type Profile struct {
	// Name labels the workload in reports ("SPECint95", "TPC-C", ...).
	Name string
	// Mix gives the per-class fraction of non-branch instruction slots.
	// Branch/Call/Return fractions are determined by the program shape
	// (BlockLen, CallFrac) rather than by Mix.
	Mix map[isa.Class]float64
	// NumFuncs and BlocksPerFunc shape the static program; code footprint
	// ≈ NumFuncs * BlocksPerFunc * BlockLen * 4 bytes.
	NumFuncs, BlocksPerFunc int
	// BlockLen is the mean basic-block length in instructions (the block
	// terminator branch included).
	BlockLen int
	// LoopIterMean is the mean trip count of a function's main loop.
	LoopIterMean int
	// CallFrac is the probability that a block boundary performs a call.
	CallFrac float64
	// MaxCallDepth bounds the synthetic call stack.
	MaxCallDepth int
	// ZipfS is the skew of function popularity (higher = hotter hot code).
	ZipfS float64
	// HotFuncs, when > 0, overrides Zipf popularity with a two-tier model:
	// a uniform hot set of HotFuncs functions receives HotProb of all
	// transaction dispatches, the remaining functions share the rest.
	// OLTP code behaves this way: a broad plateau of equally warm
	// functions (the TPC-C transaction mix plus kernel paths) rather than
	// a smooth Zipf tail.
	HotFuncs int
	// HotProb is the probability of drawing from the hot set.
	HotProb float64
	// BiasedFrac is the fraction of static conditional branches that are
	// strongly biased (predictable); the rest get a taken probability
	// uniform in [0.25,0.75] (data-dependent, hard to predict).
	BiasedFrac float64
	// BiasedTaken is the taken probability of a biased branch.
	BiasedTaken float64
	// Regions lists the data regions.
	Regions []Region
	// DepDistMean is the mean register dependency distance, in dynamic
	// instructions (smaller = less ILP, more forwarding pressure).
	DepDistMean float64
	// SpecialFrac is the fraction of non-branch slots that are Special
	// (serializing) instructions — atomics, MEMBAR, SAVE/RESTORE spills,
	// kernel entry/exit. TPC-C traces include kernel code, so theirs is
	// far higher than SPEC's.
	SpecialFrac float64
	// SharedBytes > 0 places a Shared region of that size at a fixed base
	// common to all CPUs (MP runs); its Weight is SharedWeight.
	SharedBytes   int64
	SharedWeight  float64
	SharedStoreFr float64
}

// SPECint95 models the CPU95 integer suite: small code and data footprints
// that largely fit the caches, short blocks, and a large share of
// data-dependent branches (the paper: ~30% of time lost to mispredicts,
// high cache-hit ratios).
func SPECint95() Profile {
	return Profile{
		Name: "SPECint95",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.62, isa.IntMul: 0.01,
			isa.Load: 0.26, isa.Store: 0.11,
		},
		NumFuncs: 40, BlocksPerFunc: 24, BlockLen: 6,
		LoopIterMean: 12, CallFrac: 0.004, MaxCallDepth: 8, ZipfS: 1.2,
		BiasedFrac: 0.85, BiasedTaken: 0.95,
		Regions: []Region{
			{Kind: Stack, Weight: 0.32, Bytes: 8 << 10},
			{Kind: Random, Weight: 0.44, Bytes: 20 << 10, StoreFrac: 0.3},
			{Kind: Random, Weight: 0.02, Bytes: 160 << 10, StoreFrac: 0.25},
			{Kind: Chain, Weight: 0.01, Bytes: 48 << 10, Streams: 4},
		},
		DepDistMean: 3.5,
		SpecialFrac: 0.001,
	}
}

// SPECfp95 models the CPU95 floating-point suite: long blocks of FP work,
// very predictable loop branches, streaming access over moderate arrays
// (the paper: 74% of time in the core, 3% branch stalls).
func SPECfp95() Profile {
	return Profile{
		Name: "SPECfp95",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.26,
			isa.Load:   0.27, isa.Store: 0.09,
			isa.FPAdd: 0.16, isa.FPMul: 0.10, isa.FPMulAdd: 0.10, isa.FPDiv: 0.02,
		},
		NumFuncs: 16, BlocksPerFunc: 12, BlockLen: 18,
		LoopIterMean: 60, CallFrac: 0.0015, MaxCallDepth: 6, ZipfS: 1.3,
		BiasedFrac: 0.97, BiasedTaken: 0.97,
		Regions: []Region{
			{Kind: Stack, Weight: 0.22, Bytes: 8 << 10},
			{Kind: Stream, Weight: 0.18, Bytes: 8 << 20, StrideBytes: 8, Streams: 6, StoreFrac: 0.25},
			{Kind: Random, Weight: 0.48, Bytes: 24 << 10, StoreFrac: 0.2},
			{Kind: Chain, Weight: 0.002, Bytes: 1 << 20, Streams: 4},
		},
		DepDistMean: 4.5,
		SpecialFrac: 0.0005,
	}
}

// SPECint2000 models the CPU2000 integer suite: like int95 but with larger
// code and data footprints (some L2 pressure).
func SPECint2000() Profile {
	return Profile{
		Name: "SPECint2000",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.60, isa.IntMul: 0.015,
			isa.Load: 0.27, isa.Store: 0.11,
		},
		NumFuncs: 110, BlocksPerFunc: 28, BlockLen: 6,
		LoopIterMean: 10, CallFrac: 0.004, MaxCallDepth: 10, ZipfS: 1.15,
		BiasedFrac: 0.82, BiasedTaken: 0.94,
		Regions: []Region{
			{Kind: Stack, Weight: 0.30, Bytes: 8 << 10},
			{Kind: Random, Weight: 0.42, Bytes: 24 << 10, StoreFrac: 0.3},
			{Kind: Random, Weight: 0.02, Bytes: 320 << 10, StoreFrac: 0.25},
			{Kind: Random, Weight: 0.002, Bytes: 8 << 20, StoreFrac: 0.2},
			{Kind: Chain, Weight: 0.012, Bytes: 96 << 10, Streams: 4},
		},
		DepDistMean: 3.5,
		SpecialFrac: 0.001,
	}
}

// SPECfp2000 models the CPU2000 floating-point suite: large streaming
// arrays well beyond the L2 (the paper's biggest prefetch winner, >13% IPC).
func SPECfp2000() Profile {
	return Profile{
		Name: "SPECfp2000",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.24,
			isa.Load:   0.28, isa.Store: 0.10,
			isa.FPAdd: 0.15, isa.FPMul: 0.10, isa.FPMulAdd: 0.11, isa.FPDiv: 0.02,
		},
		NumFuncs: 24, BlocksPerFunc: 14, BlockLen: 20,
		LoopIterMean: 90, CallFrac: 0.001, MaxCallDepth: 6, ZipfS: 1.3,
		BiasedFrac: 0.97, BiasedTaken: 0.97,
		Regions: []Region{
			{Kind: Stack, Weight: 0.18, Bytes: 8 << 10},
			{Kind: Stream, Weight: 0.12, Bytes: 48 << 20, StrideBytes: 8, Streams: 6, StoreFrac: 0.25},
			{Kind: Chain, Weight: 0.002, Bytes: 8 << 20, Streams: 4},
			{Kind: Random, Weight: 0.50, Bytes: 24 << 10, StoreFrac: 0.2},
			{Kind: Random, Weight: 0.006, Bytes: 64 << 20, StoreFrac: 0.2},
		},
		DepDistMean: 4.5,
		SpecialFrac: 0.0005,
	}
}

// TPCC models the TPC-C on-line transaction processing workload including
// kernel execution: a very large instruction footprint, a data working set
// far beyond the 2MB L2, many hard-to-predict branches, and serializing
// kernel/atomic instructions (the paper: 35% of time in L2-miss stalls;
// BHT- and L2-geometry sensitive).
func TPCC() Profile {
	return Profile{
		Name: "TPC-C",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.55, isa.IntMul: 0.005,
			isa.Load: 0.30, isa.Store: 0.14,
		},
		NumFuncs: 2500, BlocksPerFunc: 20, BlockLen: 5,
		LoopIterMean: 2, CallFrac: 0.03, MaxCallDepth: 6, ZipfS: 1.15,
		HotFuncs: 330, HotProb: 0.94,
		BiasedFrac: 0.85, BiasedTaken: 0.93,
		Regions: []Region{
			{Kind: Stack, Weight: 0.30, Bytes: 8 << 10},
			{Kind: Random, Weight: 0.40, Bytes: 28 << 10, StoreFrac: 0.35},
			{Kind: Random, Weight: 0.022, Bytes: 1280 << 10, StoreFrac: 0.3, AliasWithCode: true},
			{Kind: Random, Weight: 0.014, Bytes: 4 << 20, StoreFrac: 0.3},
			{Kind: Random, Weight: 0.005, Bytes: 160 << 20, StoreFrac: 0.25},
			{Kind: Chain, Weight: 0.004, Bytes: 24 << 20, Streams: 8},
		},
		DepDistMean: 3.2,
		SpecialFrac: 0.008,
	}
}

// TPCC16P is the TPC-C profile for the 16-processor SMP model: identical
// per-CPU behavior plus a shared database-buffer region with stores, which
// generates the coherence (move-out) traffic the paper's MP studies stress.
func TPCC16P() Profile {
	p := TPCC()
	p.Name = "TPC-C(16P)"
	p.SharedBytes = 32 << 20
	p.SharedWeight = 0.03
	p.SharedStoreFr = 0.20
	return p
}

// HPC models a dense floating-point kernel (DAXPY/matmul-style) — the
// high-performance-computing side of the SPARC64 V's mission. The paper
// singles out the two floating-point multiply-add units as "effective for
// HPC performance"; this profile exists to demonstrate that design choice
// (see BenchmarkAblationSingleFMAUnit and examples/hpc_fma).
func HPC() Profile {
	return Profile{
		Name: "HPC-FMA",
		Mix: map[isa.Class]float64{
			isa.IntALU: 0.18,
			isa.Load:   0.26, isa.Store: 0.10,
			isa.FPAdd: 0.06, isa.FPMul: 0.05, isa.FPMulAdd: 0.35,
		},
		NumFuncs: 8, BlocksPerFunc: 10, BlockLen: 24,
		LoopIterMean: 200, CallFrac: 0.001, MaxCallDepth: 4, ZipfS: 1.3,
		BiasedFrac: 0.99, BiasedTaken: 0.98,
		Regions: []Region{
			{Kind: Stack, Weight: 0.10, Bytes: 8 << 10},
			{Kind: Stream, Weight: 0.55, Bytes: 2 << 20, StrideBytes: 8, Streams: 8, StoreFrac: 0.2},
			{Kind: Random, Weight: 0.35, Bytes: 32 << 10, StoreFrac: 0.2},
		},
		DepDistMean: 6.0,
		SpecialFrac: 0.0002,
	}
}

// UPProfiles returns the five uniprocessor workloads of the paper's studies
// in presentation order.
func UPProfiles() []Profile {
	return []Profile{SPECint95(), SPECfp95(), SPECint2000(), SPECfp2000(), TPCC()}
}

// named is the one table of workloads by canonical lowercase name, in the
// order Names lists them: ByName and Names both read it.
var named = []struct {
	name    string
	profile func() Profile
}{
	{"specint95", SPECint95},
	{"specfp95", SPECfp95},
	{"specint2000", SPECint2000},
	{"specfp2000", SPECfp2000},
	{"tpcc", TPCC},
	{"tpcc16p", TPCC16P},
	{"hpc", HPC},
}

// ByName resolves a workload by its canonical lowercase name. It is the
// single lookup shared by the CLI tools and the experiment server, so the
// name accepted on the command line and in POST /v1/run bodies is the same.
func ByName(name string) (Profile, bool) {
	name = strings.ToLower(name)
	for _, w := range named {
		if w.name == name {
			return w.profile(), true
		}
	}
	return Profile{}, false
}

// Names lists the workloads ByName resolves, for error messages and docs.
func Names() []string {
	names := make([]string, len(named))
	for i, w := range named {
		names[i] = w.name
	}
	return names
}
