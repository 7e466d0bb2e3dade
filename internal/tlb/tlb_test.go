package tlb

import (
	"math/rand"
	"testing"

	"sparc64v/internal/config"
)

func geo(entries int) config.TLBGeometry {
	return config.TLBGeometry{Entries: entries, PageBytes: 8 << 10, MissPenalty: 40}
}

func TestHitMiss(t *testing.T) {
	tl := New(geo(4))
	if p := tl.Access(0x10000); p != 40 {
		t.Fatalf("cold access penalty = %d", p)
	}
	if p := tl.Access(0x10000); p != 0 {
		t.Fatalf("warm access penalty = %d", p)
	}
	// Same page, different offset: hit.
	if p := tl.Access(0x10008); p != 0 {
		t.Fatalf("same-page access penalty = %d", p)
	}
	// Different page: miss.
	if p := tl.Access(0x20000); p != 40 {
		t.Fatalf("new-page access penalty = %d", p)
	}
	if tl.Accesses != 4 || tl.Misses != 2 {
		t.Fatalf("stats = %d/%d", tl.Misses, tl.Accesses)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(geo(2))
	tl.Access(0x0 << 13)
	tl.Access(0x1 << 13)
	tl.Access(0x0 << 13) // refresh page 0
	tl.Access(0x2 << 13) // evicts page 1 (LRU)
	if p := tl.Access(0x0 << 13); p != 0 {
		t.Error("page 0 should have survived")
	}
	if p := tl.Access(0x1 << 13); p == 0 {
		t.Error("page 1 should have been evicted")
	}
}

func TestWorkingSetBehavior(t *testing.T) {
	tl := New(geo(64))
	rng := rand.New(rand.NewSource(1))
	// Working set inside the reach: near-zero steady-state miss rate.
	for i := 0; i < 50000; i++ {
		tl.Access(uint64(rng.Intn(32)) << 13)
	}
	inReach := float64(tl.Misses) / float64(tl.Accesses)
	tl2 := New(geo(64))
	// Working set 64x the reach: high miss rate.
	for i := 0; i < 50000; i++ {
		tl2.Access(uint64(rng.Intn(4096)) << 13)
	}
	outReach := float64(tl2.Misses) / float64(tl2.Accesses)
	if inReach > 0.01 {
		t.Errorf("in-reach miss rate %.4f too high", inReach)
	}
	if outReach < 0.5 {
		t.Errorf("out-of-reach miss rate %.4f too low", outReach)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New(config.TLBGeometry{Entries: 8, PageBytes: 3000})
}
