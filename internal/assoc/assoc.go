// Package assoc is the set-associative table with true-LRU replacement
// behind every tagged structure of the model: the caches, the branch
// history table, the TLBs and the L2 prefetcher's region table. The table
// owns tags, LRU stamps and replacement; the caller owns what a way holds
// and how an address splits into a set index and a tag.
package assoc

// Table is a set-associative table of V with true-LRU replacement. Every
// way lives in one backing array, indexed by set*ways+way. A way is empty
// while its stamp is 0; stamps count up from 1, so every tag, 0 included,
// is valid.
type Table[V any] struct {
	slots []slot[V]
	ways  int
	tick  uint64
}

type slot[V any] struct {
	tag   uint64
	stamp uint64 // last use; 0 marks an empty way
	val   V
}

// New returns a table of sets × ways empty ways, meant to be embedded by
// value. It allocates once.
func New[V any](sets, ways int) Table[V] {
	return Table[V]{slots: make([]slot[V], sets*ways), ways: ways}
}

// Lookup returns the value stored under tag in set, or nil when it is
// absent. touch makes the way the set's most recently used.
func (t *Table[V]) Lookup(set, tag uint64, touch bool) *V {
	base := int(set) * t.ways
	ways := t.slots[base : base+t.ways]
	for i := range ways {
		if w := &ways[i]; w.tag == tag && w.stamp != 0 {
			if touch {
				t.tick++
				w.stamp = t.tick
			}
			return &w.val
		}
	}
	return nil
}

// Insert returns the value stored under tag in set, installing tag as the
// most recently used way when it is absent. present reports that it was
// there already; its value and LRU rank are kept. Otherwise tag takes the
// first empty way, else the LRU way, skipping ways whose tag protect
// reports while any other way can go. protect may be nil and is called
// only when a full set evicts. Then evicted is set, victim is the
// displaced tag, and *v still holds its value for the caller to read
// before overwriting it; an empty way holds the zero V.
func (t *Table[V]) Insert(set, tag uint64, protect func(tag uint64) bool) (v *V, present bool, victim uint64, evicted bool) {
	base := int(set) * t.ways
	ways := t.slots[base : base+t.ways]
	free := -1
	for i := range ways {
		if w := &ways[i]; w.stamp == 0 && free < 0 {
			free = i
		} else if w.stamp != 0 && w.tag == tag {
			return &w.val, true, 0, false
		}
	}
	if free < 0 {
		free = lru(ways, protect)
		victim, evicted = ways[free].tag, true
	}
	t.tick++
	w := &ways[free]
	w.tag, w.stamp = tag, t.tick
	return &w.val, false, victim, evicted
}

// lru returns the least recently used way of a full set, avoiding the ways
// protect names unless every way is protected.
func lru[V any](ways []slot[V], protect func(tag uint64) bool) int {
	victim, fallback := -1, -1
	for i := range ways {
		best := &victim
		if protect != nil && protect(ways[i].tag) {
			best = &fallback
		}
		if *best < 0 || ways[i].stamp < ways[*best].stamp {
			*best = i
		}
	}
	if victim < 0 {
		return fallback
	}
	return victim
}

// Remove empties the way holding tag in set and returns the value it held;
// ok is false when tag is absent.
func (t *Table[V]) Remove(set, tag uint64) (v V, ok bool) {
	base := int(set) * t.ways
	ways := t.slots[base : base+t.ways]
	for i := range ways {
		if w := &ways[i]; w.tag == tag && w.stamp != 0 {
			v = w.val
			*w = slot[V]{}
			return v, true
		}
	}
	return v, false
}

// Each calls f for every occupied way, in set order.
func (t *Table[V]) Each(f func(set, tag uint64, v *V)) {
	for i := range t.slots {
		if w := &t.slots[i]; w.stamp != 0 {
			f(uint64(i/t.ways), w.tag, &w.val)
		}
	}
}
