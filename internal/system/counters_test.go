package system

import (
	"reflect"
	"testing"

	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/workload"
)

// TestCountersArithmetic pins the leaf-wise walk behind sampled window
// deltas: Add and Sub are inverses on every counter, a set minus itself is
// zero, a freshly built machine reads zero (which is what lets a sampled
// run without windows report its live counters), and a field that is not
// a counter panics instead of dropping out of the arithmetic.
func TestCountersArithmetic(t *testing.T) {
	const ncpu = 3
	var n uint64
	fill := func() Counters {
		k := Counters{CPUs: make([]cpu.Counters, ncpu)}
		v := reflect.ValueOf(&k).Elem()
		walkCounters(v, v, func(uint64, uint64) uint64 { n++; return n * 1_000_003 })
		return k
	}
	clone := func(k Counters) Counters {
		k.CPUs = append([]cpu.Counters(nil), k.CPUs...)
		return k
	}
	a, b := fill(), fill()
	a0 := clone(a)
	a.Add(b)
	if got, want := a.CPUs[2].Core.CommittedByClass[1], a0.CPUs[2].Core.CommittedByClass[1]+b.CPUs[2].Core.CommittedByClass[1]; got != want {
		t.Errorf("Add: array leaf = %d, want %d", got, want)
	}
	if got, want := a.DRAMWait, a0.DRAMWait+b.DRAMWait; got != want {
		t.Errorf("Add: top-level leaf = %d, want %d", got, want)
	}
	a.Sub(b)
	if !reflect.DeepEqual(a, a0) {
		t.Error("a.Add(b); a.Sub(b) does not restore a")
	}
	a.Sub(a)
	if zero := (Counters{CPUs: make([]cpu.Counters, ncpu)}); !reflect.DeepEqual(a, zero) {
		t.Error("k.Sub(k) is not all zero")
	}

	for _, cfg := range []config.Config{
		config.Base(), config.Base().WithCPUs(4), config.Base().WithSmallL1(), config.Base().WithOffChipL2(2),
	} {
		sys, err := New(cfg, sources(workload.TPCC16P(), cfg.CPUs, 1_000))
		if err != nil {
			t.Fatal(err)
		}
		if k, zero := sys.Counters(), (Counters{CPUs: make([]cpu.Counters, cfg.CPUs)}); !reflect.DeepEqual(k, zero) {
			t.Errorf("%s: fresh machine's counters are not zero: %+v", cfg.Name, k)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("walk over a non-counter field did not panic")
		}
	}()
	var bad struct {
		N   uint64
		CPI float64
	}
	v := reflect.ValueOf(&bad).Elem()
	walkCounters(v, v, func(a, b uint64) uint64 { return a + b })
}
