package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparc64v/internal/config"
)

func geo(size, ways int) config.CacheGeometry {
	return config.CacheGeometry{SizeBytes: size, Ways: ways, LineBytes: 64, HitCycles: 3, MSHRs: 1}
}

func demandMissRate(s Stats) float64 {
	return float64(s.DemandMisses) / float64(s.DemandAccesses)
}

func TestStateHelpers(t *testing.T) {
	if Invalid.Dirty() || Shared.Dirty() || Exclusive.Dirty() {
		t.Error("clean state reported dirty")
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Error("dirty state reported clean")
	}
	if Shared.Writable() || Owned.Writable() {
		t.Error("non-writable state reported writable")
	}
	if !Exclusive.Writable() || !Modified.Writable() {
		t.Error("writable state reported non-writable")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(geo(4096, 2)) // 32 sets
	if l := c.Access(0x1000); l != nil {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, Exclusive, false)
	l := c.Access(0x1000)
	if l == nil || l.State != Exclusive {
		t.Fatalf("filled line not found: %+v", l)
	}
	// Same line, different offset.
	if c.Access(0x103f) == nil {
		t.Fatal("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040) != nil {
		t.Fatal("adjacent line hit")
	}
	if c.Stats.DemandAccesses != 4 || c.Stats.DemandMisses != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(geo(2*64*2, 2)) // 2 sets, 2 ways
	nsets := uint64(2)
	stride := nsets * 64 // same-set stride
	a, b, d := uint64(0), stride, 2*stride
	c.Fill(a, Exclusive, false)
	c.Fill(b, Exclusive, false)
	c.Access(a) // refresh a
	ev, evicted := c.Fill(d, Exclusive, false)
	if !evicted || ev.LineAddr != c.LineAddr(b) {
		t.Fatalf("eviction = %+v (%v), want line of %#x", ev, evicted, b)
	}
	if c.Lookup(a) == nil || c.Lookup(d) == nil || c.Lookup(b) != nil {
		t.Fatal("LRU victim selection wrong")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := New(geo(128, 1)) // 2 sets, direct mapped
	c.Fill(0, Modified, false)
	ev, evicted := c.Fill(128, Exclusive, false) // same set (2 sets * 64B)
	if !evicted || !ev.State.Dirty() {
		t.Fatalf("dirty eviction = %+v (%v)", ev, evicted)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	if ev.Addr(c.LineShift()) != 0 {
		t.Fatalf("evicted addr = %#x", ev.Addr(c.LineShift()))
	}
}

func TestFillExistingUpdatesState(t *testing.T) {
	c := New(geo(4096, 2))
	c.Fill(0x1000, Shared, false)
	_, evicted := c.Fill(0x1000, Modified, false)
	if evicted {
		t.Fatal("refill of present line evicted")
	}
	if l := c.Lookup(0x1000); l == nil || l.State != Modified {
		t.Fatalf("state not updated: %+v", l)
	}
}

func TestInvalidateAndSetState(t *testing.T) {
	c := New(geo(4096, 2))
	c.Fill(0x2000, Modified, false)
	if st := c.Invalidate(0x2000); st != Modified {
		t.Fatalf("Invalidate returned %v", st)
	}
	if st := c.Invalidate(0x2000); st != Invalid {
		t.Fatalf("double Invalidate returned %v", st)
	}
	c.Fill(0x3000, Exclusive, false)
	c.SetState(0x3000, Shared)
	if l := c.Lookup(0x3000); l.State != Shared {
		t.Fatalf("SetState failed: %+v", l)
	}
	c.SetState(0x9999000, Shared) // absent: no-op, no panic
}

func TestPrefetchAccounting(t *testing.T) {
	c := New(geo(4096, 2))
	if c.AccessPrefetch(0x1000) {
		t.Fatal("prefetch lookup hit empty cache")
	}
	c.Fill(0x1000, Exclusive, true)
	if !c.AccessPrefetch(0x1000) {
		t.Fatal("prefetch lookup missed present line")
	}
	// Demand access promotes the prefetched line.
	l := c.Access(0x1000)
	if l == nil || l.Prefetched {
		t.Fatalf("promotion failed: %+v", l)
	}
	if c.Stats.PrefetchedUseful != 1 {
		t.Fatalf("PrefetchedUseful = %d", c.Stats.PrefetchedUseful)
	}
	// An unused prefetched line evicted counts as pollution.
	c2 := New(geo(128, 1))
	c2.Fill(0, Exclusive, true)
	c2.Fill(128, Exclusive, false)
	if c2.Stats.PrefetchedEvictedUnused != 1 {
		t.Fatalf("PrefetchedEvictedUnused = %d", c2.Stats.PrefetchedEvictedUnused)
	}
	if c.Stats.PrefetchAccesses != 2 || c.Stats.PrefetchMisses != 1 {
		t.Errorf("prefetch accesses/misses = %d/%d, want 2/1",
			c.Stats.PrefetchAccesses, c.Stats.PrefetchMisses)
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fill(Invalid) did not panic")
		}
	}()
	New(geo(4096, 2)).Fill(0, Invalid, false)
}

// Property: after any random mix of fills/invalidates/accesses the
// structural invariants hold.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(geo(8192, 4))
		states := []State{Shared, Exclusive, Owned, Modified}
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 16))
			switch rng.Intn(4) {
			case 0:
				c.Fill(addr, states[rng.Intn(len(states))], rng.Intn(4) == 0)
			case 1:
				c.Access(addr)
			case 2:
				c.Invalidate(addr)
			case 3:
				c.SetState(addr, states[rng.Intn(len(states))])
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Working-set behavior: a loop footprint inside capacity converges to ~zero
// misses; beyond capacity with a uniform random pattern it keeps missing.
func TestWorkingSetMissBehavior(t *testing.T) {
	c := New(geo(32<<10, 2))
	for pass := 0; pass < 10; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			if c.Access(a) == nil {
				c.Fill(a, Exclusive, false)
			}
		}
	}
	// After warmup the in-capacity loop must hit.
	before := c.Stats.DemandMisses
	for a := uint64(0); a < 16<<10; a += 64 {
		c.Access(a)
	}
	if c.Stats.DemandMisses != before {
		t.Errorf("in-capacity loop still missing: %d new misses",
			c.Stats.DemandMisses-before)
	}
	// Far-beyond-capacity random traffic misses nearly always.
	c2 := New(geo(32<<10, 2))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Intn(16 << 20))
		if c2.Access(a) == nil {
			c2.Fill(a, Exclusive, false)
		}
	}
	if mr := demandMissRate(c2.Stats); mr < 0.95 {
		t.Errorf("out-of-capacity miss rate %.3f too low", mr)
	}
}

// Direct-mapped caches must show conflict misses that associativity
// removes (the thrashing argument in section 4.3.3).
func TestAssociativityConflicts(t *testing.T) {
	run := func(ways int) float64 {
		g := config.CacheGeometry{SizeBytes: 8 << 10, Ways: ways, LineBytes: 64, HitCycles: 1, MSHRs: 1}
		c := New(g)
		nsets := uint64(g.Sets())
		// Two addresses mapping to the same set, alternating.
		a, b := uint64(0), nsets*64
		for i := 0; i < 1000; i++ {
			for _, addr := range []uint64{a, b} {
				if c.Access(addr) == nil {
					c.Fill(addr, Exclusive, false)
				}
			}
		}
		return demandMissRate(c.Stats)
	}
	dm, assoc := run(1), run(2)
	if dm < 0.9 {
		t.Errorf("direct-mapped ping-pong miss rate %.3f, want ~1", dm)
	}
	if assoc > 0.05 {
		t.Errorf("2-way ping-pong miss rate %.3f, want ~0", assoc)
	}
}

func TestMSHRs(t *testing.T) {
	m := NewMSHRs(2)
	if !m.Allocate(100, 50, 10) {
		t.Fatal("first Allocate failed")
	}
	if !m.Allocate(200, 60, 10) {
		t.Fatal("second Allocate failed")
	}
	// Full: third allocation at cycle 20 fails (both still in flight).
	if m.Allocate(300, 70, 20) {
		t.Fatal("Allocate succeeded with full MSHRs")
	}
	// Secondary miss merges.
	if ready, ok := m.Pending(100, 20); !ok || ready != 50 {
		t.Fatalf("Pending = %d,%v", ready, ok)
	}
	if m.CanAllocate(20) {
		t.Fatal("CanAllocate true with both entries in flight")
	}
	// After the first fill completes, allocation succeeds again.
	if !m.Allocate(300, 90, 55) {
		t.Fatal("Allocate failed after expiry")
	}
	if _, ok := m.Pending(100, 55); ok {
		t.Fatal("expired entry still pending")
	}
}

// TestNewMSHRsRejectsNonPositive: a file of fewer than one entry is a
// configuration error (CacheGeometry.Validate rejects it), not a blocking
// cache, so the constructor panics instead of running it as one entry.
func TestNewMSHRsRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMSHRs(%d) did not panic", n)
				}
			}()
			NewMSHRs(n)
		}()
	}
	m := NewMSHRs(1)
	if !m.Allocate(100, 50, 10) || m.Allocate(200, 60, 10) {
		t.Fatal("NewMSHRs(1) does not hold exactly one entry")
	}
}

func TestPrefetcherNextLine(t *testing.T) {
	p := NewPrefetcher(2, false, 16)
	got := p.OnMiss(100)
	if len(got) != 2 || got[0] != 101 || got[1] != 102 {
		t.Fatalf("OnMiss = %v", got)
	}
}

func TestPrefetcherStride(t *testing.T) {
	p := NewPrefetcher(2, true, 16)
	// Establish a stride of 3 lines within one region.
	base := uint64(1 << 10) // line number; region = base>>6
	p.OnMiss(base)
	p.OnMiss(base + 3)
	got := p.OnMiss(base + 6) // stride 3 confirmed
	if len(got) != 2 || got[0] != base+9 || got[1] != base+12 {
		t.Fatalf("strided OnMiss = %v", got)
	}
}

func TestPrefetcherSequentialChain(t *testing.T) {
	// A chain access pattern (line+1 each miss) must be covered.
	p := NewPrefetcher(2, true, 64)
	base := uint64(4096)
	p.OnMiss(base)
	p.OnMiss(base + 1)
	got := p.OnMiss(base + 2)
	if len(got) == 0 || got[0] != base+3 {
		t.Fatalf("chain OnMiss = %v", got)
	}
}

func TestBank(t *testing.T) {
	// 8 banks of 4 bytes: addr 0 -> bank 0, addr 4 -> bank 1, addr 32 -> bank 0.
	if Bank(0, 8, 4) != 0 || Bank(4, 8, 4) != 1 || Bank(32, 8, 4) != 0 {
		t.Error("bank mapping wrong")
	}
	if Bank(123, 1, 4) != 0 {
		t.Error("single bank must map everything to 0")
	}
	// A banked geometry without a bank width is rejected, not run as the
	// 4-byte-bank machine.
	g := geo(128<<10, 2)
	g.Banks, g.BankBytes = 8, 0
	if g.Validate() == nil {
		t.Error("8 banks of zero width validated")
	}
	g.Banks = 1
	if g.Validate() != nil {
		t.Error("an unbanked geometry needs no bank width")
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(geo(128<<10, 2))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if c.Access(a) == nil {
			c.Fill(a, Exclusive, false)
		}
	}
}

// Property: the cache's hit/miss decisions match a brute-force LRU
// reference model over arbitrary access sequences (no victim filter).
func TestLRUMatchesReferenceQuick(t *testing.T) {
	type refSet struct {
		order []uint64 // MRU first
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := config.CacheGeometry{SizeBytes: 4096, Ways: 4, LineBytes: 64, HitCycles: 1, MSHRs: 1}
		c := New(g)
		nsets := uint64(g.Sets())
		ref := make([]refSet, nsets)
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(1 << 14))
			line := addr >> 6
			set := &ref[line&(nsets-1)]
			// Reference lookup.
			refHit := false
			for j, l := range set.order {
				if l == line {
					refHit = true
					copy(set.order[1:j+1], set.order[:j])
					set.order[0] = line
					break
				}
			}
			got := c.Access(addr)
			if (got != nil) != refHit {
				t.Logf("seed %d access %d addr %#x: cache hit=%v ref hit=%v",
					seed, i, addr, got != nil, refHit)
				return false
			}
			if !refHit {
				c.Fill(addr, Exclusive, false)
				set.order = append([]uint64{line}, set.order...)
				if len(set.order) > g.Ways {
					set.order = set.order[:g.Ways]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNewAllocs pins the cache's layout: the Cache plus one array each for
// the tags, the LRU stamps and the lines, with no per-set slice headers.
func TestNewAllocs(t *testing.T) {
	g := config.Base().Mem.L2
	if n := testing.AllocsPerRun(10, func() { New(g) }); n != 4 {
		t.Errorf("New made %v allocations, want 4", n)
	}
}
