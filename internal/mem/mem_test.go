package mem

import (
	"testing"
	"testing/quick"

	"sparc64v/internal/config"
)

// params is the base machine's memory side with a small, round DRAM and a
// one-channel bus.
func params() config.MemParams {
	p := config.Base().Mem
	p.DRAMCycles, p.DRAMBanks, p.DRAMBankBusy = 200, 4, 16
	p.BusBytesPerCycle, p.BusRequestCycles = 8, 2
	return p
}

func TestResourceQueuing(t *testing.T) {
	var r Resource
	if s := r.Acquire(10, 5, true); s != 10 {
		t.Fatalf("first Acquire start = %d", s)
	}
	// Second request at cycle 12 queues until 15.
	if s := r.Acquire(12, 5, true); s != 15 {
		t.Fatalf("queued Acquire start = %d", s)
	}
	if r.WaitCycles != 3 {
		t.Fatalf("WaitCycles = %d", r.WaitCycles)
	}
	// The resource stays busy until 20.
	if s := r.Acquire(16, 5, true); s != 20 {
		t.Fatalf("third Acquire start = %d", s)
	}
	// Idle gap: no queuing.
	if s := r.Acquire(100, 5, true); s != 100 {
		t.Fatalf("idle Acquire start = %d", s)
	}
	// Non-contending mode never queues.
	var nc Resource
	nc.Acquire(0, 100, false)
	if s := nc.Acquire(1, 100, false); s != 1 {
		t.Fatalf("non-contending Acquire start = %d", s)
	}
}

// Property: Acquire start times are monotone in arrival order and never
// before the arrival cycle.
func TestResourceQuick(t *testing.T) {
	f := func(deltas []uint8) bool {
		var r Resource
		cycle, lastStart := uint64(0), uint64(0)
		for _, d := range deltas {
			cycle += uint64(d % 8)
			start := r.Acquire(cycle, 4, true)
			if start < cycle || start < lastStart {
				return false
			}
			lastStart = start
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusTransferBandwidth(t *testing.T) {
	b := NewBus(params(), true) // 8 B/cycle = one 8-byte channel
	// 64 bytes over one 8-byte channel = 8 cycles.
	if done := b.Transfer(0, 64); done != 8 {
		t.Fatalf("Transfer done = %d", done)
	}
	// Back-to-back transfer queues behind the first (single channel).
	if done := b.Transfer(0, 64); done != 16 {
		t.Fatalf("second Transfer done = %d", done)
	}
	if done := b.Transfer(100, 1); done != 101 {
		t.Fatalf("1-byte Transfer done = %d", done)
	}
	// A wider bus is multiple parallel channels: two 64-byte transfers at
	// the same cycle complete together.
	p := params()
	p.BusBytesPerCycle = 16
	wide := NewBus(p, true)
	d1 := wide.Transfer(0, 64)
	d2 := wide.Transfer(0, 64)
	if d1 != 8 || d2 != 8 {
		t.Fatalf("parallel transfers done = %d,%d", d1, d2)
	}
	// The third queues behind one of them.
	if d3 := wide.Transfer(0, 64); d3 != 16 {
		t.Fatalf("third transfer done = %d", d3)
	}
}

func TestBusRequest(t *testing.T) {
	b := NewBus(params(), true)
	if g := b.Request(0); g != 2 {
		t.Fatalf("Request grant = %d", g)
	}
	// The address network has two slots per arbitration window.
	if g := b.Request(0); g != 2 {
		t.Fatalf("second Request grant = %d", g)
	}
	if g := b.Request(0); g != 4 {
		t.Fatalf("queued Request grant = %d", g)
	}
	if b.WaitCycles() == 0 {
		t.Fatal("queued request recorded no wait")
	}
}

func TestDRAMBanking(t *testing.T) {
	d := NewDRAM(params(), true)
	// Two accesses to the same bank at the same cycle serialize by the
	// bank busy time; different banks do not.
	r1 := d.Access(0, 0)
	r2 := d.Access(0, 0) // same bank
	r3 := d.Access(0, 1) // different bank
	if r1 != 200 {
		t.Fatalf("first access ready = %d", r1)
	}
	if r2 != 216 {
		t.Fatalf("same-bank access ready = %d", r2)
	}
	if r3 != 200 {
		t.Fatalf("other-bank access ready = %d", r3)
	}
	if d.Latency() != 200 {
		t.Fatalf("Latency = %d", d.Latency())
	}
	if d.WaitCycles() == 0 {
		t.Fatal("same-bank conflict recorded no wait")
	}
}

// TestNewRejectsInvalidParams: the constructors no longer default or round
// what MemParams.Validate rejects; they panic on it, so two configurations
// that simulate the same machine can never differ only in such a value.
func TestNewRejectsInvalidParams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*config.MemParams)
	}{
		{"zero DRAM latency", func(p *config.MemParams) { p.DRAMCycles = 0 }},
		{"zero bank busy time", func(p *config.MemParams) { p.DRAMBankBusy = 0 }},
		{"zero banks", func(p *config.MemParams) { p.DRAMBanks = 0 }},
		{"six banks", func(p *config.MemParams) { p.DRAMBanks = 6 }},
		{"zero bus bandwidth", func(p *config.MemParams) { p.BusBytesPerCycle = 0 }},
		// Both used to build one channel, the 8 B/cycle bus.
		{"bus under one channel", func(p *config.MemParams) { p.BusBytesPerCycle = 4 }},
		{"bus not a whole number of channels", func(p *config.MemParams) { p.BusBytesPerCycle = 12 }},
		{"zero request cycles", func(p *config.MemParams) { p.BusRequestCycles = 0 }},
	} {
		p := params()
		tc.mutate(&p)
		for ctor, build := range map[string]func(){
			"NewDRAM": func() { NewDRAM(p, true) },
			"NewBus":  func() { NewBus(p, true) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", tc.name, ctor)
					}
				}()
				build()
			}()
		}
	}
}

// Saturating the bus must produce growing queuing delay — the system-level
// balance effect the paper's detailed memory model exists to expose.
func TestBusSaturation(t *testing.T) {
	b := NewBus(params(), true)
	var lastDone uint64
	for i := 0; i < 100; i++ {
		lastDone = b.Transfer(uint64(i), 64) // 1 line/cycle offered, 1/8 sustainable
	}
	// Offered load is 8x capacity: completion must lag far behind arrival.
	if lastDone < 700 {
		t.Fatalf("no saturation: last done = %d", lastDone)
	}
}
