package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sampleKeys generates a deterministic key population (seeded, so every
// run and every host sees the same keys — the tests below are exact, not
// statistical).
func sampleKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cfg-%016x-%08x", rng.Uint64(), i)
	}
	return keys
}

func poolNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	return names
}

func mustNew(t *testing.T, nodes []string) *Ring {
	t.Helper()
	r, err := New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConstructionErrors pins the membership validation.
func TestConstructionErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []string
	}{
		{"empty set", nil},
		{"empty name", []string{"a", ""}},
		{"duplicate", []string{"a", "b", "a"}},
	} {
		if _, err := New(tc.nodes); err == nil {
			t.Errorf("%s: New accepted %v", tc.name, tc.nodes)
		}
	}
}

// TestRemovalRemapsOnlyVictimKeys is the minimal-disruption contract:
// removing one of N nodes moves exactly the keys that node owned and
// nothing else, and that share is ~K/N.
func TestRemovalRemapsOnlyVictimKeys(t *testing.T) {
	const nKeys = 10000
	keys := sampleKeys(nKeys, 1)
	for pool := 2; pool <= 10; pool++ {
		nodes := poolNames(pool)
		full := mustNew(t, nodes)
		for _, victim := range []int{0, pool / 2, pool - 1} {
			var rest []string
			for i, n := range nodes {
				if i != victim {
					rest = append(rest, n)
				}
			}
			shrunk := mustNew(t, rest)
			moved, onVictim := 0, 0
			for _, k := range keys {
				before, after := full.Sequence(k)[0], shrunk.Sequence(k)[0]
				if before == nodes[victim] {
					onVictim++
					continue
				}
				if before != after {
					moved++
				}
			}
			if moved != 0 {
				t.Errorf("pool %d: removing %s moved %d keys that it did not own", pool, nodes[victim], moved)
			}
			// The victim's share is ~K/N; allow 2x slack.
			if lo, hi := nKeys/(2*pool), 2*nKeys/pool; onVictim < lo || onVictim > hi {
				t.Errorf("pool %d: victim %s owned %d of %d keys, want within [%d, %d] (~K/N)",
					pool, nodes[victim], onVictim, nKeys, lo, hi)
			}
		}
	}
}

// TestAdditionRemapsOnlyToNewNode: growing the pool by one node moves
// ~K/(N+1) keys, and every moved key moves to the new node.
func TestAdditionRemapsOnlyToNewNode(t *testing.T) {
	const nKeys = 10000
	keys := sampleKeys(nKeys, 2)
	for pool := 2; pool < 10; pool++ {
		small := mustNew(t, poolNames(pool))
		grown := mustNew(t, append(poolNames(pool), "node-new"))
		moved := 0
		for _, k := range keys {
			before, after := small.Sequence(k)[0], grown.Sequence(k)[0]
			if before == after {
				continue
			}
			moved++
			if after != "node-new" {
				t.Fatalf("pool %d: key %s moved %s -> %s, not to the new node", pool, k, before, after)
			}
		}
		if lo, hi := nKeys/(2*(pool+1)), 2*nKeys/(pool+1); moved < lo || moved > hi {
			t.Errorf("pool %d: adding a node moved %d of %d keys, want within [%d, %d] (~K/(N+1))",
				pool, moved, nKeys, lo, hi)
		}
	}
}

// TestRendezvousRemapMinimal pins the minimal-disruption property on
// names that sort differently from the poolNames pattern.
func TestRendezvousRemapMinimal(t *testing.T) {
	keys := sampleKeys(10000, 3)
	three := mustNew(t, []string{"a", "b", "c"})
	two := mustNew(t, []string{"a", "b"})
	for _, k := range keys {
		before, after := three.Sequence(k)[0], two.Sequence(k)[0]
		if before != "c" && before != after {
			t.Fatalf("key %s moved %s -> %s though its node survived", k, before, after)
		}
	}
}

// TestPrimaryDistribution bounds static skew: no node's share of 10k
// keys strays far from uniform.
func TestPrimaryDistribution(t *testing.T) {
	const pool, nKeys = 8, 10000
	r := mustNew(t, poolNames(pool))
	counts := map[string]int{}
	for _, k := range sampleKeys(nKeys, 4) {
		counts[r.Sequence(k)[0]]++
	}
	mean := nKeys / pool
	for node, c := range counts {
		if c > mean*16/10 || c < mean*4/10 {
			t.Errorf("node %s holds %d keys, mean %d: distribution too skewed", node, c, mean)
		}
	}
	if len(counts) != pool {
		t.Errorf("only %d of %d nodes hold keys", len(counts), pool)
	}
}

// TestSequenceCoversAllNodesOnce: the failover order visits every node
// exactly once.
func TestSequenceCoversAllNodesOnce(t *testing.T) {
	for pool := 2; pool <= 10; pool++ {
		r := mustNew(t, poolNames(pool))
		for _, k := range sampleKeys(100, 6) {
			seq := r.Sequence(k)
			if len(seq) != pool {
				t.Fatalf("pool %d: sequence has %d entries", pool, len(seq))
			}
			seen := map[string]bool{}
			for _, n := range seq {
				if seen[n] {
					t.Fatalf("pool %d: node %s repeats in sequence %v", pool, n, seq)
				}
				seen[n] = true
			}
		}
	}
}

// TestDeterministicAcrossConstruction: two rings built from the same
// membership in different input orders agree on every assignment — the
// "restart and nothing moves" contract.
func TestDeterministicAcrossConstruction(t *testing.T) {
	nodes := poolNames(7)
	shuffled := make([]string, len(nodes))
	copy(shuffled, nodes)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a := mustNew(t, nodes)
	b := mustNew(t, shuffled)
	for _, k := range sampleKeys(500, 7) {
		if !reflect.DeepEqual(a.Sequence(k), b.Sequence(k)) {
			t.Fatalf("sequence for %s differs across construction orders:\n%v\n%v",
				k, a.Sequence(k), b.Sequence(k))
		}
	}
}

// TestGoldenAssignments pins the exact key→node mapping for a 5-node and
// a 3-node pool. These literals are the cross-restart determinism
// contract: they must never change without a deliberate placement-version
// bump (which moves every cached key to a new node and cold-starts the
// cluster's caches).
func TestGoldenAssignments(t *testing.T) {
	fivePool := mustNew(t, []string{"n0", "n1", "n2", "n3", "n4"})
	threePool := mustNew(t, []string{"n0", "n1", "n2"})
	golden := []struct {
		key         string
		five, three string
	}{
		{"key-00", "n0", "n0"},
		{"key-01", "n3", "n2"},
		{"key-02", "n2", "n2"},
		{"key-03", "n2", "n2"},
		{"key-04", "n4", "n2"},
		{"key-05", "n2", "n2"},
		{"key-06", "n0", "n0"},
		{"key-07", "n0", "n0"},
		{"key-08", "n1", "n1"},
		{"key-09", "n0", "n0"},
		{"key-10", "n3", "n0"},
		{"key-11", "n2", "n2"},
		{"key-12", "n0", "n0"},
		{"key-13", "n0", "n0"},
		{"key-14", "n3", "n2"},
		{"key-15", "n0", "n0"},
	}
	for _, g := range golden {
		if got := fivePool.Sequence(g.key)[0]; got != g.five {
			t.Errorf("5-node pool: primary(%s) = %s, want %s (placement drifted across versions)",
				g.key, got, g.five)
		}
		if got := threePool.Sequence(g.key)[0]; got != g.three {
			t.Errorf("3-node pool: primary(%s) = %s, want %s (placement drifted across versions)",
				g.key, got, g.three)
		}
	}
}

// sequenceSink keeps BenchmarkSequence's result live.
var sequenceSink []string

// BenchmarkSequence is the per-request placement cost the gateway pays,
// at the pool size the repo runs (3) and a larger one (12).
func BenchmarkSequence(b *testing.B) {
	keys := sampleKeys(1024, 8)
	for _, pool := range []int{3, 12} {
		b.Run(fmt.Sprintf("nodes=%d", pool), func(b *testing.B) {
			r, err := New(poolNames(pool))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sequenceSink = r.Sequence(keys[i%len(keys)])
			}
		})
	}
}
