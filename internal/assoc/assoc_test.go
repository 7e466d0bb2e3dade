package assoc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// valued is a table with an int payload per way, kept the way the table's
// users keep theirs: a parallel slice under the way's index.
type valued struct {
	Table
	vals []int
}

func newValued(sets, ways int) *valued {
	return &valued{Table: New(sets, ways), vals: make([]int, sets*ways)}
}

// fill inserts tag into set 0 and stores val under it.
func fill(t *testing.T, tab *valued, tag uint64, val int) {
	t.Helper()
	i, present, _, _ := tab.Insert(0, tag, nil)
	if present {
		t.Fatalf("insert %d: already present", tag)
	}
	tab.vals[i] = val
}

func TestInsertFillsFirstEmptyWay(t *testing.T) {
	tab := New(2, 4)
	for tag := uint64(10); tag < 14; tag++ {
		i, present, _, evicted := tab.Insert(1, tag, nil)
		if present || evicted || i != int(tag-10)+4 {
			t.Fatalf("insert %d into a set with room: way %d present=%v evicted=%v", tag, i, present, evicted)
		}
	}
	for i, tag := range tab.tags[4:] {
		if tag != uint64(10+i) || tab.stamps[4+i] == 0 {
			t.Fatalf("way %d holds tag %d (stamp %d), want %d in order", i, tag, tab.stamps[4+i], 10+i)
		}
	}
	if i, ok := tab.Remove(1, 11); !ok || i != 5 {
		t.Fatalf("remove of a present tag = %d, %v; want way 5", i, ok)
	}
	if i, _, _, _ := tab.Insert(1, 20, nil); i != 5 {
		t.Fatalf("the freed way 5 was not refilled first: tag 20 went to %d", i)
	}
	for _, s := range tab.stamps[:4] {
		if s != 0 {
			t.Fatal("an insert into set 1 touched set 0")
		}
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	tab := newValued(1, 3)
	for tag := uint64(1); tag <= 3; tag++ {
		fill(t, tab, tag, int(tag)*100)
	}
	tab.Touch(tab.Lookup(0, 1)) // order now 2, 3, 1 (LRU first)
	tab.Lookup(0, 2)            // a lookup alone keeps the order
	i, present, victim, evicted := tab.Insert(0, 4, nil)
	if present || !evicted || victim != 2 {
		t.Fatalf("insert into a full set: present=%v evicted=%v victim=%d, want victim 2", present, evicted, victim)
	}
	if tab.vals[i] != 200 {
		t.Fatalf("the displaced way holds %d, want the victim's value 200", tab.vals[i])
	}
	tab.vals[i] = 400
	if tab.Lookup(0, 2) >= 0 {
		t.Fatal("evicted tag 2 still found")
	}
	if _, _, victim, _ := tab.Insert(0, 5, nil); victim != 3 {
		t.Fatalf("second eviction took %d, want 3", victim)
	}
}

func TestProtectedWays(t *testing.T) {
	tab := newValued(1, 3)
	for tag := uint64(1); tag <= 3; tag++ {
		fill(t, tab, tag, 0)
	}
	calls := 0
	protect := func(tag uint64) bool { calls++; return tag == 1 || tag == 2 }
	if _, _, victim, _ := tab.Insert(0, 4, protect); victim != 3 {
		t.Fatalf("victim %d, want 3: the LRU ways 1 and 2 are protected", victim)
	}
	all := func(uint64) bool { return true }
	if _, _, victim, _ := tab.Insert(0, 5, all); victim != 1 {
		t.Fatalf("victim %d, want 1: with every way protected the LRU way goes", victim)
	}
	calls = 0
	tab.Remove(0, 2)
	if _, _, _, evicted := tab.Insert(0, 6, protect); evicted || calls != 0 {
		t.Fatalf("insert into a set with an empty way: evicted=%v, protect called %d times", evicted, calls)
	}
}

func TestInsertPresentKeepsValueAndRank(t *testing.T) {
	tab := newValued(1, 2)
	fill(t, tab, 1, 11)
	fill(t, tab, 2, 22)
	i, present, _, evicted := tab.Insert(0, 1, nil)
	if !present || evicted || tab.vals[i] != 11 {
		t.Fatalf("re-insert of 1: present=%v evicted=%v value %d, want true false 11", present, evicted, tab.vals[i])
	}
	if _, _, victim, _ := tab.Insert(0, 3, nil); victim != 1 {
		t.Fatalf("victim %d, want 1: a re-insert must not refresh the LRU rank", victim)
	}
}

func TestRemove(t *testing.T) {
	tab := newValued(1, 2)
	fill(t, tab, 1, 11)
	fill(t, tab, 2, 22)
	i, ok := tab.Remove(0, 1)
	if !ok || tab.vals[i] != 11 {
		t.Fatalf("remove 1 = way %d, %v; want the way holding 11, true", i, ok)
	}
	if _, ok := tab.Remove(0, 1); ok {
		t.Fatal("second remove of 1 succeeded")
	}
	if tab.Lookup(0, 1) >= 0 {
		t.Fatal("removed tag still found")
	}
	j, present, _, evicted := tab.Insert(0, 3, nil)
	if present || evicted || j != i {
		t.Fatalf("insert after remove: way %d present=%v evicted=%v; want the freed way %d", j, present, evicted, i)
	}
}

func TestTagZeroIsValid(t *testing.T) {
	tab := newValued(2, 2)
	if tab.Lookup(0, 0) >= 0 {
		t.Fatal("tag 0 found in an empty table")
	}
	fill(t, tab, 0, 7)
	if i := tab.Lookup(0, 0); i < 0 || tab.vals[i] != 7 {
		t.Fatal("tag 0 not found after insert")
	}
	if _, present, _, _ := tab.Insert(0, 0, nil); !present {
		t.Fatal("re-insert of tag 0 filled a second way")
	}
	if i, ok := tab.Remove(0, 0); !ok || tab.vals[i] != 7 {
		t.Fatalf("remove tag 0 = way %d, %v", i, ok)
	}
}

func TestEach(t *testing.T) {
	tab := New(4, 2)
	tab.Insert(3, 30, nil)
	tab.Insert(1, 10, nil)
	tab.Insert(1, 11, nil)
	tab.Remove(1, 10)
	var got []uint64
	tab.Each(func(set, tag uint64, i int) { got = append(got, set, tag, uint64(i)) })
	if want := []uint64{1, 11, 3, 3, 30, 6}; !slices.Equal(got, want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
}

// refTable is the table as it was with 64-bit stamps and the payload in
// the slot, kept as the reference that the 32-bit clock must match.
type refTable[V any] struct {
	slots []refSlot[V]
	ways  int
	tick  uint64
}

type refSlot[V any] struct {
	tag   uint64
	stamp uint64 // last use; 0 marks an empty way
	val   V
}

func newRef[V any](sets, ways int) refTable[V] {
	return refTable[V]{slots: make([]refSlot[V], sets*ways), ways: ways}
}

func (t *refTable[V]) Lookup(set, tag uint64, touch bool) *V {
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

func (t *refTable[V]) Insert(set, tag uint64, protect func(tag uint64) bool) (v *V, present bool, victim uint64, evicted bool) {
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
		free = refLRU(ways, protect)
		victim, evicted = ways[free].tag, true
	}
	t.tick++
	w := &ways[free]
	w.tag, w.stamp = tag, t.tick
	return &w.val, false, victim, evicted
}

func refLRU[V any](ways []refSlot[V], protect func(tag uint64) bool) int {
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

func (t *refTable[V]) Remove(set, tag uint64) (v V, ok bool) {
	base := int(set) * t.ways
	ways := t.slots[base : base+t.ways]
	for i := range ways {
		if w := &ways[i]; w.tag == tag && w.stamp != 0 {
			v = w.val
			*w = refSlot[V]{}
			return v, true
		}
	}
	return v, false
}

func (t *refTable[V]) Each(f func(set, tag uint64, v *V)) {
	for i := range t.slots {
		if w := &t.slots[i]; w.stamp != 0 {
			f(uint64(i/t.ways), w.tag, &w.val)
		}
	}
}

// TestMatchesReferenceAcrossWraps drives the table and the 64-bit
// reference with the same random lookups (with and without touch),
// inserts (with and without a protect filter) and removes, with the clock
// pushed to a few thousand ticks below MaxUint32 again after every
// renumbering. Jumping the clock forward is what a long run does between
// two touches of one set, so every renumbering is a real one. Victims,
// presence, payloads and Each must agree at every step.
func TestMatchesReferenceAcrossWraps(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {8, 1}, {4, 2}, {2, 3}, {4, 4}, {1, 16}} {
		sets, ways := geo[0], geo[1]
		rng := rand.New(rand.NewSource(int64(sets*100 + ways)))
		tab, ref := newValued(sets, ways), newRef[int](sets, ways)
		tab.tick = math.MaxUint32 - 3000
		protected := map[uint64]bool{}
		protect := func(tag uint64) bool { return protected[tag] }
		tags := uint64(3 * sets * ways)
		wraps := 0
		for step := 0; step < 40000; step++ {
			set, tag := uint64(rng.Intn(sets)), uint64(rng.Int63n(int64(tags)))
			before := tab.tick
			switch op := rng.Intn(10); {
			case op < 4:
				touch := op < 3
				i := tab.Lookup(set, tag)
				if i >= 0 && touch {
					tab.Touch(i)
				}
				v := ref.Lookup(set, tag, touch)
				if (i >= 0) != (v != nil) || v != nil && tab.vals[i] != *v {
					t.Fatalf("%dx%d step %d: lookup(%d, %d) = way %d, reference %v", sets, ways, step, set, tag, i, v)
				}
			case op < 8:
				p := protect
				if op < 6 {
					p = nil
				}
				if rng.Intn(4) == 0 {
					protected[tag] = !protected[tag]
				}
				i, present, victim, evicted := tab.Insert(set, tag, p)
				v, rpresent, rvictim, revicted := ref.Insert(set, tag, p)
				if present != rpresent || victim != rvictim || evicted != revicted ||
					(present || evicted) && tab.vals[i] != *v {
					t.Fatalf("%dx%d step %d: insert(%d, %d) = %v %d %v, reference %v %d %v",
						sets, ways, step, set, tag, present, victim, evicted, rpresent, rvictim, revicted)
				}
				if !present {
					val := rng.Int()
					tab.vals[i], *v = val, val
				}
			default:
				i, ok := tab.Remove(set, tag)
				v, rok := ref.Remove(set, tag)
				if ok != rok || ok && tab.vals[i] != v {
					t.Fatalf("%dx%d step %d: remove(%d, %d) = %v, reference %v", sets, ways, step, set, tag, ok, rok)
				}
			}
			if tab.tick < before {
				wraps++
				tab.tick = math.MaxUint32 - uint32(1000+rng.Intn(2000))
			}
			var got, want []int
			tab.Each(func(set, tag uint64, i int) { got = append(got, int(set), int(tag), tab.vals[i]) })
			ref.Each(func(set, tag uint64, v *int) { want = append(want, int(set), int(tag), *v) })
			if !slices.Equal(got, want) {
				t.Fatalf("%dx%d step %d: Each = %v, reference %v", sets, ways, step, got, want)
			}
		}
		if wraps < 5 {
			t.Errorf("%dx%d: only %d renumberings in the run, want several", sets, ways, wraps)
		}
	}
}
