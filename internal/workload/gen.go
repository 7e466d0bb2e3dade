package workload

import (
	"math"
	"math/rand"
	"sort"

	"sparc64v/internal/isa"
	"sparc64v/internal/trace"
)

// Address-space layout of a synthetic program. Private regions are offset
// per CPU so SMP processes never alias by accident; the Shared region sits
// at one fixed base for all CPUs.
const (
	codeBase    = 0x0000_0000_0010_0000
	driverPC    = 0x0000_0000_0001_0000
	dataBase    = 0x0000_0010_0000_0000
	stackBase   = 0x0000_7ff0_0000_0000
	sharedBase  = 0x0000_4000_0000_0000
	cpuSpacing  = 0x0000_0040_0000_0000 // 256GB between CPUs' private spaces
	frameBytes  = 1 << 10
	regionAlign = 1 << 21
)

// slot is one static instruction template inside a block.
type slot struct {
	class  isa.Class
	region int8 // data region index, -1 for non-memory slots
	fpDest bool // loads only: destination register file
}

// block is a static basic block: body slots followed by one conditional
// branch (or, for a function's last block, the loop-back branch).
type block struct {
	pc     uint64
	slots  []slot
	takenP float64 // static bias of the terminating conditional branch
	callee int32   // function called from this block, or -1
}

// function is a contiguous run of blocks ending in a loop-back branch and a
// return instruction.
type function struct {
	first, nblocks int
	entryPC        uint64
	returnPC       uint64 // pc of the Return instruction
}

// streamState is the run-time cursor of one Stream/Chain stream.
type streamState struct {
	ptr      uint64
	chainDst uint8 // register holding the "pointer" for Chain regions
}

// regionState is the run-time state of a data region.
type regionState struct {
	base    uint64
	bytes   uint64
	stride  uint64
	streams []streamState
	next    int // round-robin stream selector
}

type frame struct {
	fn       int
	blockIdx int // within function
	iterLeft int
	retPC    uint64
	stackPtr uint64
}

// Gen is a deterministic, infinite trace source for one CPU's view of a
// workload. It implements trace.Source.
type Gen struct {
	prof     Profile
	rng      *rand.Rand
	cpu      int
	blocks   []block
	funcs    []function
	regions  []regionState
	regdescs []Region // effective region descriptors (incl. Shared)
	zipfCDF  []float64

	stack []frame
	buf   []trace.Record
	pos   int

	// register dataflow state
	recentInt [32]uint8
	recentFP  [32]uint8
	riPos     int
	rfPos     int
	nextInt   uint8
	nextFP    uint8

	emitted uint64
}

var _ trace.Source = (*Gen)(nil)

// New builds the static program for profile p, seeded deterministically,
// for the given CPU index (0 for uniprocessor runs).
func New(p Profile, seed int64, cpu int) *Gen {
	g := &Gen{
		prof:    p,
		rng:     rand.New(rand.NewSource(seed ^ int64(cpu)*0x9e3779b97f4a7c)),
		cpu:     cpu,
		nextInt: 8,
		nextFP:  isa.FPRegBase + 4,
	}
	for i := range g.recentInt {
		g.recentInt[i] = 8
	}
	for i := range g.recentFP {
		g.recentFP[i] = isa.FPRegBase + 4
	}
	g.buildRegions()
	g.buildProgram()
	g.buildZipf()
	return g
}

// NewMP builds n generators sharing the profile's Shared region, one per
// CPU, with decorrelated seeds. The Shared region must be configured
// (SharedBytes > 0) for sharing to exist; otherwise the CPUs simply run
// disjoint copies of the workload.
func NewMP(p Profile, seed int64, n int) []*Gen {
	gens := make([]*Gen, n)
	for i := range gens {
		gens[i] = New(p, seed, i)
	}
	return gens
}

func (g *Gen) buildRegions() {
	regs := g.prof.Regions
	if g.prof.SharedBytes > 0 {
		regs = append(append([]Region{}, regs...), Region{
			Kind: Shared, Weight: g.prof.SharedWeight,
			Bytes: g.prof.SharedBytes, StoreFrac: g.prof.SharedStoreFr,
		})
	}
	g.regdescs = regs
	base := uint64(dataBase) + uint64(g.cpu)*cpuSpacing
	for _, r := range regs {
		rs := regionState{bytes: uint64(r.Bytes)}
		switch r.Kind {
		case Stack:
			rs.base = stackBase + uint64(g.cpu)*cpuSpacing
		case Shared:
			rs.base = sharedBase
		default:
			rs.base = base
			if r.AliasWithCode {
				// Land on the code image's cache sets modulo any power-of-
				// two cache up to 64MB: offset the region base by codeBase
				// within a 64MB-aligned frame.
				rs.base = (base + (64 << 20) - 1) &^ ((64 << 20) - 1)
				rs.base += codeBase
				base = rs.base
			}
			base += (uint64(r.Bytes) + regionAlign) &^ (regionAlign - 1)
		}
		nstreams := r.Streams
		if nstreams <= 0 {
			nstreams = 1
		}
		rs.streams = make([]streamState, nstreams)
		for i := range rs.streams {
			rs.streams[i].ptr = rs.base + uint64(g.rng.Int63n(r.Bytes))&^63
			rs.streams[i].chainDst = 8 + uint8(i%16)
		}
		rs.stride = uint64(r.StrideBytes)
		if rs.stride == 0 {
			rs.stride = 64
		}
		g.regions = append(g.regions, rs)
	}
}

// regionDists returns the distributions a load and a store pick their data
// region from, over the effective region descriptors.
func (g *Gen) regionDists() (loads, stores dist) {
	lw := make([]float64, len(g.regdescs))
	sw := make([]float64, len(g.regdescs))
	for i, r := range g.regdescs {
		lw[i] = regionWeight(r, false)
		sw[i] = regionWeight(r, true)
	}
	return newDist(lw), newDist(sw)
}

func regionWeight(r Region, store bool) float64 {
	sf := r.StoreFrac
	if r.Kind == Chain {
		sf = 0.02 // pointer chases are read chains
	} else if sf == 0 {
		sf = 0.25
	}
	if store {
		return r.Weight * sf
	}
	return r.Weight * (1 - sf)
}

// buildProgram lays out the static code: functions, blocks, slots, branch
// biases and the static call graph. Every block's slots are carved from one
// arena sized for the longest possible block, so the whole layout costs a
// handful of allocations however many blocks the profile has.
func (g *Gen) buildProgram() {
	p := &g.prof
	classes, weights := mixTables(p.Mix)
	mix := newDist(weights)
	loadRegions, storeRegions := g.regionDists()
	// Summed in class order, not map order, so the float is the same on
	// every build.
	fpShare := 0.0
	for i, c := range classes {
		if c.IsFloat() {
			fpShare += weights[i]
		}
	}
	pc := uint64(codeBase)
	nf := p.NumFuncs
	nblocks := nf * p.BlocksPerFunc
	g.funcs = make([]function, nf)
	g.blocks = make([]block, 0, nblocks)
	// A block holds n ∈ [BlockLen-2, BlockLen+2] slots, clamped to ≥3.
	arena := make([]slot, 0, nblocks*max(p.BlockLen+2, 3))
	for f := 0; f < nf; f++ {
		fn := &g.funcs[f]
		fn.first = len(g.blocks)
		fn.nblocks = p.BlocksPerFunc
		fn.entryPC = pc
		for b := 0; b < p.BlocksPerFunc; b++ {
			n := p.BlockLen + g.rng.Intn(5) - 2
			if n < 3 {
				n = 3
			}
			blk := block{pc: pc, callee: -1}
			start := len(arena)
			for s := 0; s < n-1; s++ {
				sl := slot{region: -1}
				switch {
				case g.rng.Float64() < p.SpecialFrac:
					sl.class = isa.Special
				default:
					sl.class = classes[mix.sample(g.rng)]
				}
				switch sl.class {
				case isa.Load:
					sl.region = int8(loadRegions.sample(g.rng))
					sl.fpDest = g.rng.Float64() < fpShare*1.8
				case isa.Store:
					sl.region = int8(storeRegions.sample(g.rng))
				}
				arena = append(arena, sl)
			}
			// Terminating conditional branch (loop-back for the last block).
			arena = append(arena, slot{class: isa.Branch, region: -1})
			blk.slots = arena[start:len(arena):len(arena)]
			if g.rng.Float64() < p.BiasedFrac {
				blk.takenP = p.BiasedTaken
				if g.rng.Float64() < 0.3 {
					blk.takenP = 1 - p.BiasedTaken // biased not-taken
				}
			} else {
				blk.takenP = 0.25 + 0.5*g.rng.Float64()
			}
			if g.rng.Float64() < p.CallFrac {
				blk.callee = int32(g.rng.Intn(nf))
			}
			pc += uint64(len(blk.slots)) * isa.InstrBytes
			if blk.callee >= 0 {
				pc += isa.InstrBytes // reserve the call slot on the fall-through path
			}
			g.blocks = append(g.blocks, blk)
		}
		fn.returnPC = pc
		pc += isa.InstrBytes
	}
	// Rewire callees through the Zipf popularity permutation so hot
	// functions receive most static call sites.
	perm := g.rng.Perm(nf)
	for i := range g.blocks {
		if g.blocks[i].callee >= 0 {
			g.blocks[i].callee = int32(perm[g.zipfRankFor(int(g.blocks[i].callee))])
		}
	}
}

// zipfRankFor maps a uniform index to a Zipf-distributed rank determined at
// build time; build-time call sites use it so the static call graph already
// concentrates on hot functions.
func (g *Gen) zipfRankFor(uniform int) int {
	n := g.prof.NumFuncs
	// Map the uniform index through the Zipf CDF shape deterministically.
	u := (float64(uniform) + 0.5) / float64(n)
	s := g.prof.ZipfS
	if s <= 0 {
		return uniform
	}
	// Inverse-CDF approximation for a Zipf-like distribution.
	r := int(math.Pow(u, s) * float64(n))
	if r >= n {
		r = n - 1
	}
	return r
}

func (g *Gen) buildZipf() {
	n := g.prof.NumFuncs
	s := g.prof.ZipfS
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	g.zipfCDF = cdf
}

func (g *Gen) zipfFunc() int {
	if g.prof.HotFuncs > 0 {
		// Two-tier popularity: a uniform hot plateau plus a uniform tail.
		hot := g.prof.HotFuncs
		if hot > g.prof.NumFuncs {
			hot = g.prof.NumFuncs
		}
		if g.rng.Float64() < g.prof.HotProb {
			return g.rng.Intn(hot)
		}
		n := g.prof.NumFuncs - g.prof.HotFuncs
		if n <= 0 {
			return g.rng.Intn(g.prof.NumFuncs)
		}
		return g.prof.HotFuncs + g.rng.Intn(n)
	}
	x := g.rng.Float64()
	return sort.SearchFloat64s(g.zipfCDF, x)
}

func mixTables(mix map[isa.Class]float64) ([]isa.Class, []float64) {
	classes := make([]isa.Class, 0, len(mix))
	for c := isa.Class(0); c.Valid(); c++ {
		if mix[c] > 0 {
			classes = append(classes, c)
		}
	}
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = mix[c]
	}
	return classes, weights
}

// dist is a discrete distribution over weight indices, its total summed
// once in index order.
type dist struct {
	weights []float64
	total   float64
}

func newDist(weights []float64) dist {
	d := dist{weights: weights}
	for _, w := range weights {
		d.total += w
	}
	return d
}

// sample draws one index: one RNG draw scaled by the total, then the
// weights subtracted in order until the remainder goes negative.
func (d dist) sample(rng *rand.Rand) int {
	x := rng.Float64() * d.total
	for i, w := range d.weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(d.weights) - 1
}

// geometric samples a geometric variate with the given mean (≥1).
func (g *Gen) geometric(mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / float64(mean)
	n := 1
	for g.rng.Float64() > p && n < mean*8 {
		n++
	}
	return n
}

// Next implements trace.Source; the stream is infinite.
func (g *Gen) Next(r *trace.Record) bool {
	for g.pos >= len(g.buf) {
		g.refill()
	}
	*r = g.buf[g.pos]
	g.pos++
	g.emitted++
	return true
}

// call pushes a frame for function f, returning to retPC.
func (g *Gen) call(f int, retPC uint64) {
	g.stack = append(g.stack, frame{
		fn:       f,
		iterLeft: g.geometric(g.prof.LoopIterMean),
		retPC:    retPC,
		stackPtr: stackBase + uint64(g.cpu)*cpuSpacing - uint64(len(g.stack))*frameBytes,
	})
}

// refill emits the next block (or driver/return glue) into g.buf.
func (g *Gen) refill() {
	g.buf = g.buf[:0]
	g.pos = 0
	if len(g.stack) == 0 {
		// Driver: a two-instruction dispatch loop that calls a Zipf-popular
		// function per "transaction", then branches back to itself.
		if g.emitted > 0 {
			g.buf = append(g.buf, trace.Record{
				PC: driverPC + isa.InstrBytes, Op: isa.Branch, Taken: true,
				EA:  driverPC,
				Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
			})
		}
		f := g.zipfFunc()
		g.buf = append(g.buf, trace.Record{
			PC: driverPC, Op: isa.Call, Taken: true,
			EA:  g.funcs[f].entryPC,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		})
		g.call(f, driverPC+isa.InstrBytes)
		return
	}
	fr := &g.stack[len(g.stack)-1]
	fn := &g.funcs[fr.fn]
	if fr.blockIdx >= fn.nblocks {
		// Loop epilogue: emit the Return and pop.
		g.buf = append(g.buf, trace.Record{
			PC: fn.returnPC, Op: isa.Return, Taken: true, EA: fr.retPC,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		})
		g.stack = g.stack[:len(g.stack)-1]
		return
	}
	blk := &g.blocks[fn.first+fr.blockIdx]
	last := fr.blockIdx == fn.nblocks-1
	fellThrough := false
	pc := blk.pc
	for i, sl := range blk.slots {
		isTerm := i == len(blk.slots)-1
		var rec trace.Record
		rec.PC = pc
		rec.Dst, rec.Src1, rec.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
		switch {
		case isTerm && last:
			// Loop-back branch.
			rec.Op = isa.Branch
			rec.Src1 = g.pickRecent(false)
			if fr.iterLeft > 1 {
				fr.iterLeft--
				rec.Taken = true
				rec.EA = fn.entryPC
				fr.blockIdx = 0
			} else {
				rec.Taken = false
				fr.blockIdx++ // falls into epilogue
				fellThrough = true
			}
		case isTerm:
			rec.Op = isa.Branch
			rec.Src1 = g.pickRecent(false)
			if g.rng.Float64() < blk.takenP {
				rec.Taken = true
				skip := fr.blockIdx + 2
				if skip > fn.nblocks-1 {
					skip = fn.nblocks - 1
				}
				rec.EA = g.blocks[fn.first+skip].pc
				fr.blockIdx = skip
			} else {
				fr.blockIdx++
				fellThrough = true
			}
		default:
			g.emitSlot(&rec, sl, fr)
		}
		g.buf = append(g.buf, rec)
		pc += isa.InstrBytes
	}
	// Static call site: on the fall-through path after the block, call the
	// callee (a taken terminator jumps over the call instruction). At the
	// depth limit the callee degenerates to a call/return pair, bounding
	// recursion while keeping the instruction stream self-consistent.
	if blk.callee >= 0 && fellThrough {
		g.buf = append(g.buf, trace.Record{
			PC: pc, Op: isa.Call, Taken: true,
			EA:  g.funcs[blk.callee].entryPC,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		})
		g.call(int(blk.callee), pc+isa.InstrBytes)
		if len(g.stack) > g.prof.MaxCallDepth {
			// Beyond the depth cap, functions run a single loop pass, which
			// makes the call tree subcritical and bounds transaction size.
			g.stack[len(g.stack)-1].iterLeft = 1
		}
	}
}

// emitSlot fills rec for a body slot, assigning registers and addresses.
func (g *Gen) emitSlot(rec *trace.Record, sl slot, fr *frame) {
	rec.Op = sl.class
	switch sl.class {
	case isa.Load:
		rs := &g.regions[sl.region]
		kind := g.regdescs[sl.region].Kind
		var st *streamState
		rec.EA, rec.Src1, st = g.nextAddr(rs, kind, fr)
		rec.Size = 8
		if sl.fpDest {
			rec.Dst = g.newFPDst()
		} else {
			rec.Dst = g.newIntDst()
			if kind == Chain && st != nil {
				// The loaded value is the next pointer of the chain: the
				// following chain access depends on this load's result.
				st.chainDst = rec.Dst
			}
		}
	case isa.Store:
		rs := &g.regions[sl.region]
		kind := g.regdescs[sl.region].Kind
		rec.EA, rec.Src1, _ = g.nextAddr(rs, kind, fr)
		rec.Size = 8
		rec.Src2 = g.pickRecent(g.rng.Float64() < 0.3)
	case isa.Nop, isa.Special:
		// no register effects
	default:
		rec.Src1 = g.pickRecent(sl.class.IsFloat())
		if g.rng.Float64() < 0.6 {
			rec.Src2 = g.pickRecent(sl.class.IsFloat())
		}
		if sl.class.IsFloat() {
			rec.Dst = g.newFPDst()
		} else {
			rec.Dst = g.newIntDst()
		}
	}
}

// nextAddr produces the effective address for an access to region rs, the
// register the address computation depends on, and (for stream/chain
// regions) the stream that was advanced.
func (g *Gen) nextAddr(rs *regionState, kind RegionKind, fr *frame) (uint64, uint8, *streamState) {
	switch kind {
	case Stack:
		off := uint64(g.rng.Intn(frameBytes/8)) * 8
		return fr.stackPtr - off, 14, nil // %sp-relative
	case Stream:
		st := &rs.streams[rs.next]
		rs.next = (rs.next + 1) % len(rs.streams)
		st.ptr += rs.stride
		if st.ptr >= rs.base+rs.bytes {
			st.ptr = rs.base
		}
		return st.ptr, g.pickRecent(false), st
	case Chain:
		st := &rs.streams[rs.next]
		rs.next = (rs.next + 1) % len(rs.streams)
		st.ptr += 64
		if st.ptr >= rs.base+rs.bytes {
			st.ptr = rs.base
		}
		// Address depends on the previously loaded pointer: serialized.
		return st.ptr, st.chainDst, st
	default: // Random, Shared
		line := uint64(g.rng.Int63n(int64(rs.bytes >> 6)))
		return rs.base + line*64 + uint64(g.rng.Intn(8))*8, g.pickRecent(false), nil
	}
}

// pickRecent returns a recently written register at a geometric dependency
// distance, modeling the workload's inherent ILP.
func (g *Gen) pickRecent(fp bool) uint8 {
	d := int(g.rng.ExpFloat64() * g.prof.DepDistMean)
	if d >= len(g.recentInt) {
		d = len(g.recentInt) - 1
	}
	if fp {
		return g.recentFP[(g.rfPos-1-d+2*len(g.recentFP))%len(g.recentFP)]
	}
	return g.recentInt[(g.riPos-1-d+2*len(g.recentInt))%len(g.recentInt)]
}

func (g *Gen) newIntDst() uint8 {
	r := g.nextInt
	g.nextInt++
	if g.nextInt >= 28 {
		g.nextInt = 8
	}
	g.recentInt[g.riPos%len(g.recentInt)] = r
	g.riPos++
	return r
}

func (g *Gen) newFPDst() uint8 {
	r := g.nextFP
	g.nextFP++
	if g.nextFP >= isa.FPRegBase+28 {
		g.nextFP = isa.FPRegBase + 4
	}
	g.recentFP[g.rfPos%len(g.recentFP)] = r
	g.rfPos++
	return r
}
