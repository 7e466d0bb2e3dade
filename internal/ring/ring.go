// Package ring places cache keys on a pool of nodes so that identical
// keys always land on the same node (cache affinity and cluster-wide
// singleflight) while membership changes move as few keys as possible.
//
// Placement is rendezvous (highest-random-weight) hashing: every node
// scores every key and the highest score wins. That is per-key uniform
// and minimally disruptive — removing a node moves only the keys it won,
// adding one moves only the keys the newcomer now wins — at O(N) per
// lookup, which is cheap for the pools of a few workers the cluster runs.
//
// Everything is deterministic: hashes are seed-free FNV-1a, nodes are
// sorted at construction, and the same membership produces the same
// key→node assignment in every process on every host. The gateway's
// failover path leans on Sequence: the preference order a key visits is
// stable, so retries land on the same fallback replica everywhere.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable placement of a node set; build a new Ring on
// membership change. All methods are safe for concurrent use.
type Ring struct {
	nodes []string // sorted, unique
}

// New builds a ring over the node names. Names must be non-empty and
// unique; order does not matter (they are sorted, so two processes that
// learn the membership in different orders agree on placement).
func New(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: empty node set")
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("ring: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("ring: duplicate node %q", n)
		}
	}
	return &Ring{nodes: sorted}, nil
}

// hashString is seed-free 64-bit FNV-1a followed by a splitmix64
// finalizer. FNV alone leaves the high bits of short, similar strings
// nearly identical ("cfg-…01" vs "cfg-…02"), which skews the scores of
// similar keys; the finalizer avalanches every input bit across the
// word. Both stages are fixed constants — stable across processes,
// hosts, and releases, which is what lets placement survive restarts.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sequence returns every node in the key's deterministic preference
// order — descending HRW score, ties broken by name: the primary first,
// then the fallback replicas a failover should try. The slice is freshly
// allocated.
func (r *Ring) Sequence(key string) []string {
	type scored struct {
		score uint64
		node  string
	}
	ss := make([]scored, len(r.nodes))
	for i, n := range r.nodes {
		ss[i] = scored{score: hashString(n + "\x00" + key), node: n}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].node < ss[j].node
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.node
	}
	return out
}
