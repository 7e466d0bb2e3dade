// Package mem models the system bus and main memory of the performance
// model with timestamped resources: every shared resource keeps a
// next-free cycle, so a request's service time is computed at issue from
// latency plus queuing delay. This is how the model captures the paper's
// "request queue, bus conflict, bandwidth, and latency" without a global
// event queue.
package mem

import "sparc64v/internal/config"

// Resource is a serially occupied resource (a bus slot, a DRAM bank).
type Resource struct {
	nextFree uint64
	// WaitCycles accumulates queuing delay experienced by requesters.
	WaitCycles uint64
}

// Acquire occupies the resource for busy cycles starting no earlier than
// cycle; it returns the actual start time (>= cycle). When contend is
// false the resource is treated as infinitely wide (no queuing), which
// implements the low-fidelity model versions.
func (r *Resource) Acquire(cycle, busy uint64, contend bool) uint64 {
	if !contend {
		return cycle
	}
	start := cycle
	if r.nextFree > start {
		r.WaitCycles += r.nextFree - start
		start = r.nextFree
	}
	r.nextFree = start + busy
	return start
}

// channelBytes is the width of one data channel; the configured bus
// bandwidth is provided by BusBytesPerCycle/channelBytes parallel channels.
const channelBytes = config.BusChannelBytes

// Bus is the system interconnect connecting processor chips and memory: an
// address/snoop network plus a multi-channel data network.
type Bus struct {
	req     []Resource
	data    []Resource
	reqBusy uint64
	contend bool
}

// NewBus builds the bus from the memory parameters, which must pass
// p.Validate.
func NewBus(p config.MemParams, contend bool) *Bus {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nreq := 2
	return &Bus{
		req:     make([]Resource, nreq),
		data:    make([]Resource, p.BusBytesPerCycle/channelBytes),
		reqBusy: uint64(p.BusRequestCycles),
		contend: contend,
	}
}

// pick selects the least-loaded resource of a group.
func pick(rs []Resource) *Resource {
	best := &rs[0]
	for i := 1; i < len(rs); i++ {
		if rs[i].nextFree < best.nextFree {
			best = &rs[i]
		}
	}
	return best
}

// Request arbitrates for the address/snoop network at cycle; the returned
// cycle is when the request has been broadcast.
func (b *Bus) Request(cycle uint64) uint64 {
	start := pick(b.req).Acquire(cycle, b.reqBusy, b.contend)
	return start + b.reqBusy
}

// Transfer moves bytes over one data channel starting no earlier than
// cycle; the returned cycle is when the last byte arrives.
func (b *Bus) Transfer(cycle, bytes uint64) uint64 {
	busy := (bytes + channelBytes - 1) / channelBytes
	if busy == 0 {
		busy = 1
	}
	start := pick(b.data).Acquire(cycle, busy, b.contend)
	return start + busy
}

// WaitCycles returns total queuing delay on both networks.
func (b *Bus) WaitCycles() uint64 {
	var w uint64
	for i := range b.req {
		w += b.req[i].WaitCycles
	}
	for i := range b.data {
		w += b.data[i].WaitCycles
	}
	return w
}

// DRAM is main memory: interleaved banks with a fixed access latency and a
// per-access bank busy time (cycle time).
type DRAM struct {
	banks    []Resource
	bankMask uint64
	latency  uint64
	bankBusy uint64
	contend  bool
}

// NewDRAM builds memory from the parameters, which must pass p.Validate.
func NewDRAM(p config.MemParams, contend bool) *DRAM {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{
		banks:    make([]Resource, p.DRAMBanks),
		bankMask: uint64(p.DRAMBanks - 1),
		latency:  uint64(p.DRAMCycles),
		bankBusy: uint64(p.DRAMBankBusy),
		contend:  contend,
	}
}

// Access reads or writes the line at lineAddr starting no earlier than
// cycle; the returned cycle is when data is available at the memory pins.
func (d *DRAM) Access(cycle, lineAddr uint64) uint64 {
	bank := &d.banks[lineAddr&d.bankMask]
	start := bank.Acquire(cycle, d.bankBusy, d.contend)
	return start + d.latency
}

// Latency returns the configured access latency.
func (d *DRAM) Latency() uint64 { return d.latency }

// WaitCycles returns total bank queuing delay.
func (d *DRAM) WaitCycles() uint64 {
	var w uint64
	for i := range d.banks {
		w += d.banks[i].WaitCycles
	}
	return w
}
