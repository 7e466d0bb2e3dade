package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

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

// Property: hits and misses match a brute-force LRU reference model, for
// a fully associative TLB and for an 8-way set-associative one.
func TestLRUMatchesReferenceQuick(t *testing.T) {
	for _, entries := range []int{6, 64} {
		ways := min(entries, 8)
		nsets := uint64(entries / ways)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tl := New(geo(entries))
			ref := make([][]uint64, nsets) // per set, MRU first
			for i := 0; i < 5000; i++ {
				vpn := uint64(rng.Intn(3 * entries))
				set := vpn & (nsets - 1)
				j := 0
				for j < len(ref[set]) && ref[set][j] != vpn {
					j++
				}
				hit := j < len(ref[set])
				if hit {
					copy(ref[set][1:j+1], ref[set][:j])
					ref[set][0] = vpn
				} else {
					ref[set] = append([]uint64{vpn}, ref[set]...)
					if len(ref[set]) > ways {
						ref[set] = ref[set][:ways]
					}
				}
				if p := tl.Access(vpn<<13 | uint64(rng.Intn(8<<10))); (p == 0) != hit {
					t.Logf("%d entries, seed %d access %d vpn %d: penalty %d, reference hit=%v",
						entries, seed, i, vpn, p, hit)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%d entries: %v", entries, err)
		}
	}
}

// TestNewAllocs pins the TLB's layout: the TLB plus one array each for the
// tags and the LRU stamps, with no per-set slice headers.
func TestNewAllocs(t *testing.T) {
	g := config.Base().DTLB
	if n := testing.AllocsPerRun(10, func() { New(g) }); n != 3 {
		t.Errorf("New made %v allocations, want 3", n)
	}
}
