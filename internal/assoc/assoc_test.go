package assoc

import (
	"slices"
	"testing"
)

// fill inserts tag into set 0 and stores val under it.
func fill(t *testing.T, tab *Table[int], tag uint64, val int) {
	t.Helper()
	v, present, _, _ := tab.Insert(0, tag, nil)
	if present {
		t.Fatalf("insert %d: already present", tag)
	}
	*v = val
}

func TestInsertFillsFirstEmptyWay(t *testing.T) {
	tab := New[int](2, 4)
	for tag := uint64(10); tag < 14; tag++ {
		_, present, _, evicted := tab.Insert(1, tag, nil)
		if present || evicted {
			t.Fatalf("insert %d into a set with room: present=%v evicted=%v", tag, present, evicted)
		}
	}
	for i, w := range tab.slots[4:] {
		if w.tag != uint64(10+i) || w.stamp == 0 {
			t.Fatalf("way %d holds tag %d (stamp %d), want %d in order", i, w.tag, w.stamp, 10+i)
		}
	}
	if _, ok := tab.Remove(1, 11); !ok {
		t.Fatal("remove of a present tag failed")
	}
	tab.Insert(1, 20, nil)
	if tab.slots[5].tag != 20 {
		t.Fatalf("the freed way 1 was not refilled first: way 1 holds %d", tab.slots[5].tag)
	}
	for _, w := range tab.slots[:4] {
		if w.stamp != 0 {
			t.Fatal("an insert into set 1 touched set 0")
		}
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	tab := New[int](1, 3)
	for tag := uint64(1); tag <= 3; tag++ {
		fill(t, &tab, tag, int(tag)*100)
	}
	tab.Lookup(0, 1, true)  // order now 2, 3, 1 (LRU first)
	tab.Lookup(0, 2, false) // an untouched lookup keeps the order
	v, present, victim, evicted := tab.Insert(0, 4, nil)
	if present || !evicted || victim != 2 {
		t.Fatalf("insert into a full set: present=%v evicted=%v victim=%d, want victim 2", present, evicted, victim)
	}
	if *v != 200 {
		t.Fatalf("the displaced way holds %d, want the victim's value 200", *v)
	}
	*v = 400
	if tab.Lookup(0, 2, false) != nil {
		t.Fatal("evicted tag 2 still found")
	}
	if _, _, victim, _ := tab.Insert(0, 5, nil); victim != 3 {
		t.Fatalf("second eviction took %d, want 3", victim)
	}
}

func TestProtectedWays(t *testing.T) {
	tab := New[int](1, 3)
	for tag := uint64(1); tag <= 3; tag++ {
		fill(t, &tab, tag, 0)
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
	tab := New[int](1, 2)
	fill(t, &tab, 1, 11)
	fill(t, &tab, 2, 22)
	v, present, _, evicted := tab.Insert(0, 1, nil)
	if !present || evicted || *v != 11 {
		t.Fatalf("re-insert of 1: present=%v evicted=%v value %d, want true false 11", present, evicted, *v)
	}
	if _, _, victim, _ := tab.Insert(0, 3, nil); victim != 1 {
		t.Fatalf("victim %d, want 1: a re-insert must not refresh the LRU rank", victim)
	}
}

func TestRemove(t *testing.T) {
	tab := New[int](1, 2)
	fill(t, &tab, 1, 11)
	fill(t, &tab, 2, 22)
	if v, ok := tab.Remove(0, 1); !ok || v != 11 {
		t.Fatalf("remove 1 = %d, %v; want 11, true", v, ok)
	}
	if _, ok := tab.Remove(0, 1); ok {
		t.Fatal("second remove of 1 succeeded")
	}
	if tab.Lookup(0, 1, true) != nil {
		t.Fatal("removed tag still found")
	}
	v, present, _, evicted := tab.Insert(0, 3, nil)
	if present || evicted || *v != 0 {
		t.Fatalf("insert after remove: present=%v evicted=%v value %d; want the freed way, zeroed", present, evicted, *v)
	}
}

func TestTagZeroIsValid(t *testing.T) {
	tab := New[int](2, 2)
	if tab.Lookup(0, 0, false) != nil {
		t.Fatal("tag 0 found in an empty table")
	}
	fill(t, &tab, 0, 7)
	if v := tab.Lookup(0, 0, true); v == nil || *v != 7 {
		t.Fatal("tag 0 not found after insert")
	}
	if _, present, _, _ := tab.Insert(0, 0, nil); !present {
		t.Fatal("re-insert of tag 0 filled a second way")
	}
	if v, ok := tab.Remove(0, 0); !ok || v != 7 {
		t.Fatalf("remove tag 0 = %d, %v", v, ok)
	}
}

func TestEach(t *testing.T) {
	tab := New[int](4, 2)
	tab.Insert(3, 30, nil)
	tab.Insert(1, 10, nil)
	tab.Insert(1, 11, nil)
	tab.Remove(1, 10)
	var got []uint64
	tab.Each(func(set, tag uint64, _ *int) { got = append(got, set, tag) })
	if want := []uint64{1, 11, 3, 30}; !slices.Equal(got, want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
}
