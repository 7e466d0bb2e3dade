package system

import (
	"reflect"

	"sparc64v/internal/coherence"
	"sparc64v/internal/cpu"
	"sparc64v/internal/stats"
)

// Counters is the machine's measurement counter set: every CPU's
// cpu.Counters, the coherence protocol's counters and the bus and DRAM
// queuing delay. Every leaf is a monotonic counter, so a window's activity
// is the leaf-wise difference of the sets read around it, and a sampled
// run's measured activity the leaf-wise sum of its windows.
type Counters struct {
	CPUs              []cpu.Counters
	Coherence         coherence.Stats
	BusWait, DRAMWait uint64
}

// Counters reads the machine's counter set.
func (s *System) Counters() Counters {
	k := Counters{
		CPUs:      make([]cpu.Counters, len(s.cpus)),
		Coherence: s.ctrl.Stats,
		BusWait:   s.bus.WaitCycles(),
		DRAMWait:  s.dram.WaitCycles(),
	}
	for i, c := range s.cpus {
		k.CPUs[i] = c.Counters()
	}
	return k
}

// Add adds o's counters into k, leaf by leaf.
func (k *Counters) Add(o Counters) {
	walkCounters(reflect.ValueOf(k).Elem(), reflect.ValueOf(o), func(a, b uint64) uint64 { return a + b })
}

// Sub subtracts o's counters from k, leaf by leaf (o is an earlier read of
// the same machine).
func (k *Counters) Sub(o Counters) {
	walkCounters(reflect.ValueOf(k).Elem(), reflect.ValueOf(o), func(a, b uint64) uint64 { return a - b })
}

// walkCounters sets every uint64 leaf of dst to f(leaf, the same leaf of
// src), descending through structs, arrays and slices. Any other kind
// cannot be a counter, so it panics rather than drop the field from the
// arithmetic.
func walkCounters(dst, src reflect.Value, f func(a, b uint64) uint64) {
	switch dst.Kind() {
	case reflect.Uint64:
		dst.SetUint(f(dst.Uint(), src.Uint()))
	case reflect.Struct:
		for i := range dst.NumField() {
			walkCounters(dst.Field(i), src.Field(i), f)
		}
	case reflect.Array, reflect.Slice:
		if dst.Len() != src.Len() {
			panic("system: counter sets of different lengths")
		}
		for i := range dst.Len() {
			walkCounters(dst.Index(i), src.Index(i), f)
		}
	default:
		panic("system: counter field " + dst.Type().String() + " is not a counter")
	}
}

// Report converts the counters into the Report of configuration name on
// workload, whose global cycle count is cycles.
func (k Counters) Report(name, workload string, cycles uint64) Report {
	r := Report{
		Name:           name,
		Workload:       workload,
		Cycles:         cycles,
		CPUs:           make([]CPUReport, len(k.CPUs)),
		Coherence:      k.Coherence,
		BusWaitCycles:  k.BusWait,
		DRAMWaitCycles: k.DRAMWait,
	}
	for i := range k.CPUs {
		c := &k.CPUs[i]
		r.CPUs[i] = CPUReport{
			Core:           c.Core,
			Branch:         c.Branch,
			L1I:            c.L1I,
			L1D:            c.L1D,
			L2:             c.L2,
			ITLBMissRate:   stats.Ratio(c.ITLBMisses, c.ITLBAccesses),
			DTLBMissRate:   stats.Ratio(c.DTLBMisses, c.DTLBAccesses),
			TLBStallCycles: c.TLBStallCycles,
		}
		r.Committed += c.Core.Committed
	}
	return r
}
