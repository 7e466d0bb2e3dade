package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparc64v/internal/config"
	"sparc64v/internal/isa"
)

func smallGeo() config.BHTGeometry {
	return config.BHTGeometry{Entries: 64, Ways: 2, AccessCycles: 1}
}

// lookup is the prediction half of Predictor.Conditional: it predicts the
// branch at pc. hit reports whether the table holds an entry; when !hit
// the static prediction (not taken) applies.
func (b *BHT) lookup(pc uint64) (taken bool, target uint64, hit bool) {
	set, tag := b.index(pc)
	if i := b.tags.Lookup(set, tag); i >= 0 {
		b.tags.Touch(i)
		return b.counters[i] >= 2, b.targets[i], true
	}
	return false, 0, false
}

// update is the training half: it trains the table with the architected
// outcome without changing its LRU order.
func (b *BHT) update(pc uint64, taken bool, target uint64) {
	set, tag := b.index(pc)
	if i := b.tags.Lookup(set, tag); i >= 0 {
		b.train(i, taken, target)
	} else if taken {
		b.allocate(set, tag, target)
	}
}

func TestBHTLearnsTaken(t *testing.T) {
	b := NewBHT(smallGeo())
	pc, tgt := uint64(0x1000), uint64(0x2000)
	if taken, _, hit := b.lookup(pc); taken || hit {
		t.Fatal("cold lookup must be a static not-taken miss")
	}
	b.update(pc, true, tgt)
	taken, target, hit := b.lookup(pc)
	if !hit || !taken || target != tgt {
		t.Fatalf("after one taken update: taken=%v target=%#x hit=%v", taken, target, hit)
	}
	// A single not-taken flips the 2-bit counter to weakly-taken, still taken.
	b.update(pc, false, 0)
	if taken, _, _ := b.lookup(pc); !taken {
		t.Fatal("2-bit counter flipped after a single not-taken")
	}
	b.update(pc, false, 0)
	if taken, _, _ := b.lookup(pc); taken {
		t.Fatal("counter still taken after two not-takens")
	}
}

func TestBHTNeverAllocatesNotTaken(t *testing.T) {
	b := NewBHT(smallGeo())
	b.update(0x1000, false, 0)
	if _, _, hit := b.lookup(0x1000); hit {
		t.Fatal("not-taken branch allocated an entry")
	}
}

func TestBHTCapacityEviction(t *testing.T) {
	g := smallGeo() // 32 sets * 2 ways
	b := NewBHT(g)
	// Fill one set's both ways plus one more mapping to the same set.
	nsets := uint64(g.Entries / g.Ways)
	pcs := []uint64{0x1000, 0x1000 + nsets*4, 0x1000 + 2*nsets*4}
	for _, pc := range pcs {
		b.update(pc, true, pc+100)
	}
	hits := 0
	for _, pc := range pcs {
		if _, _, hit := b.lookup(pc); hit {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("expected exactly 2 survivors in a 2-way set, got %d", hits)
	}
}

func TestBHTTargetUpdate(t *testing.T) {
	b := NewBHT(smallGeo())
	b.update(0x1000, true, 0x2000)
	b.update(0x1000, true, 0x3000) // indirect-style target change
	_, target, _ := b.lookup(0x1000)
	if target != 0x3000 {
		t.Fatalf("target = %#x, want 0x3000", target)
	}
}

// Property: a strongly biased branch is predicted with accuracy well above
// its bias floor; an alternating branch does poorly. Classic 2-bit counter
// behavior.
func TestCounterDynamics(t *testing.T) {
	b := NewBHT(smallGeo())
	rng := rand.New(rand.NewSource(42))
	correct, total := 0, 0
	for i := 0; i < 10000; i++ {
		taken := rng.Float64() < 0.95
		pred, _, _ := b.lookup(0x4000)
		if pred == taken {
			correct++
		}
		total++
		b.update(0x4000, taken, 0x5000)
	}
	if acc := float64(correct) / float64(total); acc < 0.90 {
		t.Errorf("biased branch accuracy %.3f < 0.90", acc)
	}
	// Strict alternation defeats a 2-bit counter.
	correct, total = 0, 0
	for i := 0; i < 1000; i++ {
		taken := i%2 == 0
		pred, _, _ := b.lookup(0x6000)
		if pred == taken {
			correct++
		}
		total++
		b.update(0x6000, taken, 0x7000)
	}
	if acc := float64(correct) / float64(total); acc > 0.6 {
		t.Errorf("alternating branch accuracy %.3f suspiciously high", acc)
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	if a, ok := r.Pop(); !ok || a != 2 {
		t.Fatalf("Pop = %d,%v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 1 {
		t.Fatalf("Pop = %d,%v", a, ok)
	}
	// Overflow wraps: deepest entries are lost, newest survive.
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i))
	}
	if r.n != 4 {
		t.Fatalf("depth = %d", r.n)
	}
	for want := 6; want >= 3; want-- {
		a, ok := r.Pop()
		if !ok || a != uint64(want) {
			t.Fatalf("Pop = %d,%v, want %d", a, ok, want)
		}
	}
}

// Property: RAS behaves as a stack for any push/pop sequence within
// capacity.
func TestRASQuick(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRAS(64)
		var model []uint64
		next := uint64(1)
		for _, push := range ops {
			if push {
				if len(model) == 64 {
					continue
				}
				r.Push(next)
				model = append(model, next)
				next++
			} else {
				got, ok := r.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return r.n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPredictorConditional(t *testing.T) {
	p := NewPredictor(config.BHTGeometry{Entries: 1024, Ways: 4, AccessCycles: 2}, 8)
	// Train a taken branch, then verify correct predictions cost bubbles.
	o := p.Conditional(0x100, true, 0x200)
	if !o.Mispredict {
		t.Fatal("cold taken branch must mispredict (static not-taken)")
	}
	o = p.Conditional(0x100, true, 0x200)
	if o.Mispredict || o.TakenBubbles != 2 {
		t.Fatalf("trained taken branch: %+v", o)
	}
	// Correct not-taken prediction is free.
	o = p.Conditional(0x300, false, 0)
	if o.Mispredict || o.TakenBubbles != 0 {
		t.Fatalf("not-taken branch: %+v", o)
	}
	// Target change on a predicted-taken branch is a misprediction.
	o = p.Conditional(0x100, true, 0x999)
	if !o.Mispredict {
		t.Fatal("target mismatch not flagged")
	}
	if p.Stats.CondBranches != 4 || p.Stats.CondMispredicts != 2 {
		t.Fatalf("stats = %+v", p.Stats)
	}
}

func TestPredictorCallReturn(t *testing.T) {
	p := NewPredictor(smallGeo(), 8)
	o := p.Call(0x1000)
	if o.Mispredict {
		t.Fatal("call mispredicted")
	}
	o = p.Return(0x1004)
	if o.Mispredict {
		t.Fatal("matched return mispredicted")
	}
	// Return with empty RAS mispredicts.
	o = p.Return(0x2000)
	if !o.Mispredict {
		t.Fatal("empty-RAS return predicted")
	}
	if p.Stats.Returns != 2 || p.Stats.ReturnMispredicts != 1 || p.Stats.Calls != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	if p.Stats.Branches() != 3 {
		t.Fatalf("Branches() = %d", p.Stats.Branches())
	}
	if got := failureRate(&p.Stats); got < 0.33 || got > 0.34 {
		t.Fatalf("FailureRate = %v", got)
	}
}

// The capacity story behind Figure 10: a branch working set that fits the
// large table but thrashes the small one must show a clearly higher failure
// rate on the small table.
func TestGeometryCapacityEffect(t *testing.T) {
	run := func(g config.BHTGeometry, nBranches int) float64 {
		p := NewPredictor(g, 8)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200000; i++ {
			pc := uint64(rng.Intn(nBranches))*4 + 0x10000
			// All branches biased-taken: perfectly predictable when resident.
			taken := rng.Float64() < 0.97
			p.Conditional(pc, taken, pc+400)
		}
		return failureRate(&p.Stats)
	}
	big := config.BHTGeometry{Entries: 16 << 10, Ways: 4, AccessCycles: 2}
	small := config.BHTGeometry{Entries: 4 << 10, Ways: 2, AccessCycles: 1}
	const branches = 6000 // fits 16K, thrashes 4K
	fBig, fSmall := run(big, branches), run(small, branches)
	if fSmall < fBig*1.4 {
		t.Errorf("small-table failure rate %.4f not ≫ big-table %.4f", fSmall, fBig)
	}
}

func BenchmarkPredictor(b *testing.B) {
	p := NewPredictor(config.BHTGeometry{Entries: 16 << 10, Ways: 4, AccessCycles: 2}, 8)
	rng := rand.New(rand.NewSource(1))
	pcs := make([]uint64, 1024)
	for i := range pcs {
		pcs[i] = uint64(rng.Intn(8000))*4 + 0x10000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		p.Conditional(pc, i%3 != 0, pc+400)
	}
}

// TestCallReturnRoundTrip: the address Call pushes must be exactly what a
// matched Return pops — pc advanced by the architectural instruction size
// (a literal "pc + 4" here once drifted from isa.InstrBytes).
func TestCallReturnRoundTrip(t *testing.T) {
	p := NewPredictor(smallGeo(), 8)
	// Nested calls, then returns in LIFO order: none may mispredict.
	pcs := []uint64{0x1000, 0x2040, 0x3080, 0x40c0}
	for _, pc := range pcs {
		p.Call(pc)
	}
	for i := len(pcs) - 1; i >= 0; i-- {
		out := p.Return(pcs[i] + isa.InstrBytes)
		if out.Mispredict {
			t.Fatalf("matched return from call at %#x mispredicted", pcs[i])
		}
	}
	if p.Stats.ReturnMispredicts != 0 {
		t.Fatalf("ReturnMispredicts = %d after matched call/return pairs",
			p.Stats.ReturnMispredicts)
	}
	// A return to anywhere other than call PC + InstrBytes must mispredict.
	p.Call(0x5000)
	if out := p.Return(0x5000 + 2*isa.InstrBytes); !out.Mispredict {
		t.Fatal("mismatched return target predicted as correct")
	}
}

// TestRASOverflowWraps: pushing past capacity keeps the newest entries (the
// stack wraps), so the deepest frames mispredict but recent ones survive.
func TestRASOverflowWraps(t *testing.T) {
	const depth = 8
	p := NewPredictor(smallGeo(), depth)
	for i := 0; i < depth+3; i++ {
		p.Call(uint64(0x1000 + 0x100*i))
	}
	// The most recent depth calls predict correctly in LIFO order.
	for i := depth + 2; i >= 3; i-- {
		if out := p.Return(uint64(0x1000+0x100*i) + isa.InstrBytes); out.Mispredict {
			t.Fatalf("recent frame %d mispredicted after wrap", i)
		}
	}
}

// failureRate is the paper's "branch prediction failure" metric:
// mispredictions per predicted branch.
func failureRate(s *Stats) float64 {
	return float64(s.Mispredicts()) / float64(s.Branches())
}

// Property: the BHT's predictions match a brute-force LRU reference model
// over arbitrary lookup/update sequences: lookups refresh an entry's rank,
// updates train it in place, and a taken miss allocates over the LRU way.
func TestLRUMatchesReferenceQuick(t *testing.T) {
	type refEntry struct {
		line, target uint64
		counter      uint8
	}
	g := config.BHTGeometry{Entries: 32, Ways: 4, AccessCycles: 1}
	nsets := uint64(g.Entries / g.Ways)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBHT(g)
		ref := make([][]refEntry, nsets) // per set, MRU first
		for i := 0; i < 5000; i++ {
			line := uint64(rng.Intn(96))
			pc := line << 2
			set := line & (nsets - 1)
			j := 0
			for j < len(ref[set]) && ref[set][j].line != line {
				j++
			}
			hit := j < len(ref[set])
			if rng.Intn(2) == 0 {
				taken, target, gotHit := b.lookup(pc)
				var want refEntry
				if hit {
					want = ref[set][j]
					copy(ref[set][1:j+1], ref[set][:j])
					ref[set][0] = want
				}
				if gotHit != hit || hit && (taken != (want.counter >= 2) || target != want.target) {
					t.Logf("seed %d op %d: Lookup(%#x) = %v %#x %v, reference %+v hit=%v",
						seed, i, pc, taken, target, gotHit, want, hit)
					return false
				}
				continue
			}
			taken, target := rng.Intn(3) != 0, uint64(rng.Intn(4))<<8
			b.update(pc, taken, target)
			switch {
			case hit && taken:
				e := &ref[set][j]
				e.counter = min(e.counter+1, 3)
				e.target = target
			case hit:
				e := &ref[set][j]
				e.counter -= min(e.counter, 1)
			case taken:
				ref[set] = append([]refEntry{{line: line, target: target, counter: 3}}, ref[set]...)
				if len(ref[set]) > g.Ways {
					ref[set] = ref[set][:g.Ways]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNewBHTAllocs pins the table's layout: the BHT plus one array each
// for the tags, the LRU stamps, the targets and the counters, with no
// per-set slice headers.
func TestNewBHTAllocs(t *testing.T) {
	g := config.Base().BHT
	if n := testing.AllocsPerRun(10, func() { NewBHT(g) }); n != 5 {
		t.Errorf("NewBHT made %v allocations, want 5", n)
	}
}
