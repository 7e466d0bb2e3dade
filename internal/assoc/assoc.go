// Package assoc is the set-associative tag store with true-LRU replacement
// behind every tagged structure of the model: the caches, the branch
// history table, the TLBs and the L2 prefetcher's region table. The table
// owns tags, LRU stamps and replacement; the caller owns what a way holds
// and how an address splits into a set index and a tag.
package assoc

import "math"

// Table is the tag store of a set-associative table with true-LRU
// replacement. Tags and LRU stamps live in two parallel arrays indexed by
// set*ways+way, each set contiguous. Lookup and Insert return that index;
// the caller keeps each way's payload in its own slices of sets × ways
// elements under the same index.
//
// A way is empty while its stamp is 0, so every tag, 0 included, is valid.
// Stamps count up from 1 on a 32-bit clock and are only ever compared
// within one set. When the clock would wrap, every set's stamps are
// rewritten as their LRU rank 1..k and the clock restarts at ways, above
// every rank: each set keeps its exact order, so no replacement decision
// depends on the run's length.
type Table struct {
	tags   []uint64
	stamps []uint32 // last use; 0 marks an empty way
	ways   int
	tick   uint32
}

// New returns a table of sets × ways empty ways, meant to be embedded by
// value. It allocates the two arrays.
func New(sets, ways int) Table {
	n := sets * ways
	return Table{tags: make([]uint64, n), stamps: make([]uint32, n), ways: ways}
}

// Lookup returns the index of the way holding tag in set, or -1 when it is
// absent. It leaves the LRU order alone; Touch updates it.
func (t *Table) Lookup(set, tag uint64) int {
	base := int(set) * t.ways
	for i, k := range t.tags[base : base+t.ways] {
		if k == tag && t.stamps[base+i] != 0 {
			return base + i
		}
	}
	return -1
}

// Touch makes the occupied way at index way its set's most recently used.
func (t *Table) Touch(way int) { t.stamps[way] = t.next() }

// Insert returns the index of the way holding tag in set, installing tag
// as the most recently used way when it is absent. present reports that it
// was there already; its payload and LRU rank are kept. Otherwise tag takes
// the first empty way, else the LRU way, skipping ways whose tag protect
// reports while any other way can go. protect may be nil and is called only
// when a full set evicts. Then evicted is set, victim is the displaced tag,
// and the caller's payload at the returned index still holds the victim's
// for the caller to read before overwriting it. The payload of a way that
// was empty is whatever the caller last left there.
func (t *Table) Insert(set, tag uint64, protect func(tag uint64) bool) (way int, present bool, victim uint64, evicted bool) {
	base := int(set) * t.ways
	tags, stamps := t.tags[base:base+t.ways], t.stamps[base:base+t.ways]
	free := -1
	for i, s := range stamps {
		if s == 0 {
			if free < 0 {
				free = i
			}
		} else if tags[i] == tag {
			return base + i, true, 0, false
		}
	}
	if free < 0 {
		free = lru(tags, stamps, protect)
		victim, evicted = tags[free], true
	}
	tags[free] = tag
	stamps[free] = t.next()
	return base + free, false, victim, evicted
}

// lru returns the least recently used way of a full set, avoiding the ways
// protect names unless every way is protected.
func lru(tags []uint64, stamps []uint32, protect func(tag uint64) bool) int {
	victim, fallback := -1, -1
	for i, s := range stamps {
		best := &victim
		if protect != nil && protect(tags[i]) {
			best = &fallback
		}
		if *best < 0 || s < stamps[*best] {
			*best = i
		}
	}
	if victim < 0 {
		return fallback
	}
	return victim
}

// Remove empties the way holding tag in set and returns its index, whose
// payload the caller may still read; ok is false when tag is absent.
func (t *Table) Remove(set, tag uint64) (way int, ok bool) {
	if way = t.Lookup(set, tag); way < 0 {
		return way, false
	}
	t.stamps[way] = 0
	return way, true
}

// Each calls f for every occupied way, in index order.
func (t *Table) Each(f func(set, tag uint64, way int)) {
	for i, s := range t.stamps {
		if s != 0 {
			f(uint64(i/t.ways), t.tags[i], i)
		}
	}
}

// next advances the clock and returns the new most-recent stamp.
func (t *Table) next() uint32 {
	if t.tick == math.MaxUint32 {
		t.renumber()
	}
	t.tick++
	return t.tick
}

// renumber rewrites each set's stamps as their LRU rank, 1 for the least
// recently used occupied way, and restarts the clock at ways, the highest
// rank any set can hold. Stamps are distinct within a set (each comes from
// its own clock tick, or from a distinct rank), so every set keeps its
// order exactly. It costs O(ways) per way, once per 2^32 touches.
func (t *Table) renumber() {
	old := make([]uint32, t.ways)
	for base := 0; base < len(t.stamps); base += t.ways {
		set := t.stamps[base : base+t.ways]
		copy(old, set)
		for i, s := range old {
			if s == 0 {
				continue
			}
			rank := uint32(1)
			for _, o := range old {
				if o != 0 && o < s {
					rank++
				}
			}
			set[i] = rank
		}
	}
	t.tick = uint32(t.ways)
}
