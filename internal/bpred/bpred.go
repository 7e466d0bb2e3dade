// Package bpred implements the SPARC64 V branch prediction machinery: a
// set-associative, tagged branch history table (BHT) with 2-bit saturating
// counters and stored targets, plus a return-address stack.
//
// The paper's Figure 9/10 study compares two BHT geometries — a 16K-entry
// 4-way table with 2-cycle access ("16k-4w.2t") against a 4K-entry 2-way
// table with 1-cycle access ("4k-2w.1t"). The access latency matters
// because a predicted-taken branch cannot redirect fetch until the table
// read completes: the large table costs two fetch bubbles per taken branch,
// the small one costs one.
package bpred

import (
	"math/bits"

	"sparc64v/internal/assoc"
	"sparc64v/internal/config"
	"sparc64v/internal/isa"
)

// BHT is a tagged, set-associative branch history table. Each way holds
// a branch's stored target and its 2-bit saturating counter (0, 1 predict
// not taken; 2, 3 taken), under the way's index in tags.
type BHT struct {
	tags     assoc.Table
	targets  []uint64
	counters []uint8
	setMask  uint64
	// tagShift is log2 of the set count: the tag is the line number
	// above the set-index bits.
	tagShift uint
	// access is the table read latency (taken-branch fetch bubbles).
	access int
}

// NewBHT builds a table with the given geometry.
func NewBHT(g config.BHTGeometry) *BHT {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	nsets := g.Entries / g.Ways
	return &BHT{
		tags:     assoc.New(nsets, g.Ways),
		targets:  make([]uint64, g.Entries),
		counters: make([]uint8, g.Entries),
		setMask:  uint64(nsets - 1),
		tagShift: uint(bits.TrailingZeros(uint(nsets))),
		access:   g.AccessCycles,
	}
}

func (b *BHT) index(pc uint64) (set uint64, tag uint64) {
	line := pc >> 2
	return line & b.setMask, line >> b.tagShift
}

// train applies an outcome to the entry at way i: a taken branch
// strengthens its counter and stores its target, a not-taken one weakens
// the counter.
func (b *BHT) train(i int, taken bool, target uint64) {
	if taken {
		b.counters[i] = min(b.counters[i]+1, 3)
		b.targets[i] = target
	} else {
		b.counters[i] -= min(b.counters[i], 1)
	}
}

// allocate installs a strongly-taken entry with target for (set, tag),
// evicting the LRU way. Entries are allocated on taken branches only: a
// never-taken branch costs nothing to predict statically.
func (b *BHT) allocate(set, tag, target uint64) {
	i, _, _, _ := b.tags.Insert(set, tag, nil)
	b.targets[i], b.counters[i] = target, 3
}

// RAS is a fixed-depth return-address stack with wrap-around overwrite on
// overflow (matching hardware behavior: deep recursion corrupts the oldest
// entries, not the newest).
type RAS struct {
	buf []uint64
	top int
	n   int
}

// NewRAS returns a stack with the given capacity (≥ 1, by config.Validate).
func NewRAS(entries int) *RAS {
	return &RAS{buf: make([]uint64, entries)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.buf[r.top] = addr
	r.top = (r.top + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Pop predicts the target of a return. ok is false when the stack is empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.n--
	return r.buf[r.top], true
}

// Stats counts prediction outcomes.
type Stats struct {
	// CondBranches and CondMispredicts count conditional branches.
	CondBranches, CondMispredicts uint64
	// Calls counts call instructions (always predicted taken).
	Calls uint64
	// Returns and ReturnMispredicts count RAS activity.
	Returns, ReturnMispredicts uint64
	// BHTHits counts conditional lookups that found an entry.
	BHTHits uint64
}

// Branches returns the total control transfers predicted.
func (s *Stats) Branches() uint64 { return s.CondBranches + s.Calls + s.Returns }

// Mispredicts returns total mispredictions.
func (s *Stats) Mispredicts() uint64 { return s.CondMispredicts + s.ReturnMispredicts }

// Outcome is the front end's view of one predicted control transfer.
type Outcome struct {
	// Mispredict reports a direction or target misprediction: fetch went
	// down the wrong path until the branch resolves.
	Mispredict bool
	// TakenBubbles is the fetch-gap cost, in cycles, of a correctly
	// predicted taken transfer (BHT access latency).
	TakenBubbles int
}

// Predictor bundles the BHT and RAS behind the interface the fetch unit
// uses: feed it each control-transfer record (with its architected outcome)
// and get back what the front end would have done.
type Predictor struct {
	bht *BHT
	ras *RAS
	// Stats accumulates outcome counts.
	Stats Stats
}

// NewPredictor builds the predictor for the given geometry.
func NewPredictor(bht config.BHTGeometry, rasEntries int) *Predictor {
	return &Predictor{bht: NewBHT(bht), ras: NewRAS(rasEntries)}
}

// Conditional processes a conditional branch: pc, the architected outcome
// taken/target.
func (p *Predictor) Conditional(pc uint64, taken bool, target uint64) Outcome {
	p.Stats.CondBranches++
	set, tag := p.bht.index(pc)
	i := p.bht.tags.Lookup(set, tag)
	predTaken, predTarget := false, uint64(0)
	if i >= 0 {
		p.bht.tags.Touch(i)
		p.Stats.BHTHits++
		predTaken, predTarget = p.bht.counters[i] >= 2, p.bht.targets[i]
	}
	var o Outcome
	switch {
	case predTaken != taken:
		o.Mispredict = true
	case taken && predTarget != target:
		o.Mispredict = true
	case taken:
		o.TakenBubbles = p.bht.access
	}
	if o.Mispredict {
		p.Stats.CondMispredicts++
	}
	if i >= 0 {
		p.bht.train(i, taken, target)
	} else if taken {
		p.bht.allocate(set, tag, target)
	}
	return o
}

// Call processes a call instruction: the target is known at decode, so it
// never mispredicts, but the taken redirect still costs the table bubbles,
// and the return address is pushed for the matching Return.
func (p *Predictor) Call(pc uint64) Outcome {
	p.Stats.Calls++
	p.ras.Push(pc + isa.InstrBytes)
	return Outcome{TakenBubbles: p.bht.access}
}

// Return processes a return: the RAS supplies the predicted target.
func (p *Predictor) Return(target uint64) Outcome {
	p.Stats.Returns++
	pred, ok := p.ras.Pop()
	if !ok || pred != target {
		p.Stats.ReturnMispredicts++
		return Outcome{Mispredict: true}
	}
	return Outcome{TakenBubbles: p.bht.access}
}
