package coherence

import (
	"math/rand"
	"testing"

	"sparc64v/internal/cache"
	"sparc64v/internal/config"
	"sparc64v/internal/mem"
)

// fakeChip is a minimal ChipCache backed by a real cache.
type fakeChip struct {
	l2          *cache.Cache
	invalidated []uint64
}

func (f *fakeChip) Probe(addr uint64) cache.State {
	if l := f.l2.Lookup(addr); l != nil {
		return l.State
	}
	return cache.Invalid
}
func (f *fakeChip) Downgrade(addr uint64, st cache.State) { f.l2.SetState(addr, st) }
func (f *fakeChip) InvalidateLine(addr uint64) {
	f.l2.Invalidate(addr)
	f.invalidated = append(f.invalidated, addr)
}

func newController(nchips int) (*Controller, []*fakeChip) {
	p := config.Base().Mem
	bus := mem.NewBus(p, true)
	dram := mem.NewDRAM(p, true)
	ctrl := NewController(p, bus, dram, true)
	chips := make([]*fakeChip, nchips)
	for i := range chips {
		chips[i] = &fakeChip{l2: cache.New(config.CacheGeometry{
			SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, HitCycles: 10, MSHRs: 1})}
		ctrl.AttachChip(chips[i])
	}
	return ctrl, chips
}

func TestUPFetchFromMemory(t *testing.T) {
	ctrl, _ := newController(1)
	ready, st := ctrl.FetchLine(0, 0x1000, false, 0)
	if st != cache.Exclusive {
		t.Fatalf("state = %v, want E", st)
	}
	if ready <= ctrl.dram.Latency() {
		t.Fatalf("ready = %d, must include bus + memory", ready)
	}
	if ctrl.Stats.MemoryReads != 1 || ctrl.Stats.CacheTransfers != 0 {
		t.Fatalf("stats = %+v", ctrl.Stats)
	}
}

func TestReadSharing(t *testing.T) {
	ctrl, chips := newController(2)
	// Chip 0 reads: gets E.
	_, st := ctrl.FetchLine(0, 0x1000, false, 0)
	chips[0].l2.Fill(0x1000, st, false)
	// Chip 1 reads the same line: supplier E -> both Shared, served by C2C.
	ready, st1 := ctrl.FetchLine(1, 0x1000, false, 100)
	if st1 != cache.Shared {
		t.Fatalf("requestor state = %v, want S", st1)
	}
	chips[1].l2.Fill(0x1000, st1, false)
	if got := chips[0].Probe(0x1000); got != cache.Shared {
		t.Fatalf("supplier state = %v, want S", got)
	}
	if ctrl.Stats.CacheTransfers != 1 {
		t.Fatalf("stats = %+v", ctrl.Stats)
	}
	// C2C must be much faster than memory in full-fidelity timing.
	memReady, _ := ctrl.FetchLine(0, 0x8000, false, 100)
	if ready-100 >= memReady-100 {
		t.Errorf("C2C latency %d not faster than memory %d", ready-100, memReady-100)
	}
	if !ctrl.CheckCoherence(0x1000) {
		t.Fatal("coherence violated")
	}
}

func TestDirtySupplierBecomesOwner(t *testing.T) {
	ctrl, chips := newController(2)
	chips[0].l2.Fill(0x2000, cache.Modified, false)
	_, st := ctrl.FetchLine(1, 0x2000, false, 0)
	if st != cache.Shared {
		t.Fatalf("requestor state = %v", st)
	}
	chips[1].l2.Fill(0x2000, st, false)
	if got := chips[0].Probe(0x2000); got != cache.Owned {
		t.Fatalf("supplier state = %v, want O", got)
	}
	if !ctrl.CheckCoherence(0x2000) {
		t.Fatal("coherence violated")
	}
}

func TestExclusiveFetchInvalidates(t *testing.T) {
	ctrl, chips := newController(4)
	for _, ch := range chips[1:] {
		ch.l2.Fill(0x3000, cache.Shared, false)
	}
	_, st := ctrl.FetchLine(0, 0x3000, true, 0)
	if st != cache.Modified {
		t.Fatalf("state = %v, want M", st)
	}
	chips[0].l2.Fill(0x3000, st, false)
	for i, ch := range chips[1:] {
		if got := ch.Probe(0x3000); got != cache.Invalid {
			t.Fatalf("chip %d state = %v, want I", i+1, got)
		}
	}
	if ctrl.Stats.Invalidations != 3 {
		t.Fatalf("Invalidations = %d", ctrl.Stats.Invalidations)
	}
	if !ctrl.CheckCoherence(0x3000) {
		t.Fatal("coherence violated")
	}
}

func TestUpgrade(t *testing.T) {
	ctrl, chips := newController(2)
	chips[0].l2.Fill(0x4000, cache.Shared, false)
	chips[1].l2.Fill(0x4000, cache.Shared, false)
	granted := ctrl.Upgrade(0, 0x4000, 50)
	if granted <= 50 {
		t.Fatalf("granted = %d", granted)
	}
	chips[0].l2.SetState(0x4000, cache.Modified)
	if chips[1].Probe(0x4000) != cache.Invalid {
		t.Fatal("remote copy survived upgrade")
	}
	if ctrl.Stats.Upgrades != 1 || ctrl.Stats.Invalidations != 1 {
		t.Fatalf("stats = %+v", ctrl.Stats)
	}
	if !ctrl.CheckCoherence(0x4000) {
		t.Fatal("coherence violated")
	}
}

func TestWriteback(t *testing.T) {
	ctrl, _ := newController(1)
	ctrl.Writeback(0x5000, 10)
	if ctrl.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d", ctrl.Stats.Writebacks)
	}
	// The writeback holds the line's DRAM bank, so an access to it queues.
	if ready := ctrl.dram.Access(10, 0x5000>>6); ready <= 10+ctrl.dram.Latency() {
		t.Fatal("writeback did not reach memory")
	}
}

func TestLowFidelityC2CTiming(t *testing.T) {
	p := config.Base().Mem
	bus := mem.NewBus(p, true)
	dram := mem.NewDRAM(p, true)
	ctrl := NewController(p, bus, dram, false) // coherence timing off
	a := &fakeChip{l2: cache.New(config.CacheGeometry{
		SizeBytes: 8 << 10, Ways: 2, LineBytes: 64, HitCycles: 10, MSHRs: 1})}
	b := &fakeChip{l2: cache.New(config.CacheGeometry{
		SizeBytes: 8 << 10, Ways: 2, LineBytes: 64, HitCycles: 10, MSHRs: 1})}
	ctrl.AttachChip(a)
	ctrl.AttachChip(b)
	a.l2.Fill(0x100, cache.Modified, false)
	c2cReady, _ := ctrl.FetchLine(1, 0x100, false, 0)
	memReady, _ := ctrl.FetchLine(1, 0x4100, false, 0)
	// Without coherence timing, C2C costs like memory (within queue noise).
	d := int64(c2cReady) - int64(memReady)
	if d < -40 || d > 40 {
		t.Errorf("low-fidelity C2C %d vs memory %d differ too much", c2cReady, memReady)
	}
}

// Property: any random sequence of reads/writes across chips preserves the
// MOESI single-writer invariant (as maintained through the controller).
func TestCoherenceInvariantRandom(t *testing.T) {
	ctrl, chips := newController(4)
	rng := rand.New(rand.NewSource(3))
	lines := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	cycle := uint64(0)
	for i := 0; i < 5000; i++ {
		cycle += uint64(rng.Intn(3))
		chip := rng.Intn(len(chips))
		addr := lines[rng.Intn(len(lines))]
		write := rng.Intn(3) == 0
		st := chips[chip].Probe(addr)
		switch {
		case st == cache.Invalid:
			_, newSt := ctrl.FetchLine(chip, addr, write, cycle)
			chips[chip].l2.Fill(addr, newSt, false)
		case write && !st.Writable():
			ctrl.Upgrade(chip, addr, cycle)
			chips[chip].l2.SetState(addr, cache.Modified)
		case write:
			chips[chip].l2.SetState(addr, cache.Modified)
		}
		if !ctrl.CheckCoherence(addr) {
			states := make([]cache.State, len(chips))
			for j := range chips {
				states[j] = chips[j].Probe(addr)
			}
			t.Fatalf("iteration %d: coherence violated on %#x: %v", i, addr, states)
		}
	}
}

// Repeated reads of a dirty line keep being served by the owner without
// touching memory (the move-out economics of the two-level hierarchy).
func TestOwnerServesRepeatedReads(t *testing.T) {
	ctrl, chips := newController(4)
	chips[0].l2.Fill(0x9000, cache.Modified, false)
	memBefore := ctrl.Stats.MemoryReads
	for i, ch := range chips[1:] {
		_, st := ctrl.FetchLine(i+1, 0x9000, false, uint64(i*100))
		ch.l2.Fill(0x9000, st, false)
	}
	if ctrl.Stats.MemoryReads != memBefore {
		t.Fatalf("owner present but %d memory reads happened",
			ctrl.Stats.MemoryReads-memBefore)
	}
	if ctrl.Stats.CacheTransfers != 3 {
		t.Fatalf("CacheTransfers = %d", ctrl.Stats.CacheTransfers)
	}
	if got := chips[0].Probe(0x9000); got != cache.Owned {
		t.Fatalf("original owner state = %v, want O", got)
	}
	if !ctrl.CheckCoherence(0x9000) {
		t.Fatal("coherence violated")
	}
}

// A store by a sharer after wide read sharing invalidates every other copy
// exactly once.
func TestWriteAfterWideSharing(t *testing.T) {
	ctrl, chips := newController(8)
	for _, ch := range chips {
		ch.l2.Fill(0xa000, cache.Shared, false)
	}
	granted := ctrl.Upgrade(3, 0xa000, 0)
	chips[3].l2.SetState(0xa000, cache.Modified)
	if granted == 0 {
		t.Fatal("upgrade not granted")
	}
	if ctrl.Stats.Invalidations != 7 {
		t.Fatalf("Invalidations = %d, want 7", ctrl.Stats.Invalidations)
	}
	for i, ch := range chips {
		want := cache.Invalid
		if i == 3 {
			want = cache.Modified
		}
		if got := ch.Probe(0xa000); got != want {
			t.Fatalf("chip %d state %v, want %v", i, got, want)
		}
	}
}
