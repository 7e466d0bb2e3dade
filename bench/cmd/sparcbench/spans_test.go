package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: opSpan, Start: 0, End: 100},
		// Overlapping children cover [10,50] and [90,100].
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "trace.open", Start: 90, End: 100},
		{ID: 5, Parent: 2, Name: "system.tick", Start: 12, End: 28},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 4, 3: 30, 4: 10, 5: 16} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	rows, opWall := layerTable(spans)
	if opWall != 100 {
		t.Fatalf("op wall %d, want 100", opWall)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r.Layer] = r.SelfNS
	}
	want := map[string]int64{"bench": 50, "core": 34, "trace": 10, "system": 16}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("layer %s self %d, want %d", l, got[l], ns)
		}
	}
	if u := unattributed(rows); u != 0.5 {
		t.Errorf("unattributed share %v, want 0.5", u)
	}
}

func TestRecorderScopes(t *testing.T) {
	var none scope
	inner, end := none.begin("x.y")
	end()
	if inner.rec != nil || none.record("x.z", time.Now(), time.Now()).rec != nil {
		t.Fatal("a nil recorder recorded a span")
	}
	r := newRecorder()
	sc, endOp := r.root(7).begin(opSpan)
	t0 := time.Now()
	sc.record("core.run", t0, t0.Add(time.Millisecond)).record("system.tick", t0, t0)
	endOp()
	spans := r.snapshot()
	if len(spans) != 3 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || spans[2].Trace != 7 {
		t.Fatalf("spans %+v: want op → core.run → system.tick in trace 7", spans)
	}
	if spans[0].End < spans[0].Start {
		t.Errorf("op span ends before it starts: %+v", spans[0])
	}
}
