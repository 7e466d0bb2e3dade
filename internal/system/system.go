// Package system composes the full machine model: one or more processor
// chips (out-of-order core + L1s + on/off-chip L2), the snooping coherence
// controller, the system bus and main memory — the paper's "detailed
// processor model and detailed memory system model" in one object, usable
// as a uniprocessor or an SMP (TPC-C 16P).
package system

import (
	"fmt"

	"sparc64v/internal/bpred"
	"sparc64v/internal/cache"
	"sparc64v/internal/coherence"
	"sparc64v/internal/config"
	"sparc64v/internal/cpu"
	"sparc64v/internal/mem"
	"sparc64v/internal/stats"
	"sparc64v/internal/trace"
)

// System is a complete simulated machine.
type System struct {
	cfg   config.Config
	cpus  []*cpu.CPU
	chips []*cpu.ChipMem
	ctrl  *coherence.Controller
	bus   *mem.Bus
	dram  *mem.DRAM
	cycle uint64
}

// New builds a machine for cfg; sources supplies one instruction trace per
// CPU (len(sources) must equal cfg.CPUs).
func New(cfg config.Config, sources []trace.Source) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.CPUs {
		return nil, fmt.Errorf("system: %d sources for %d CPUs", len(sources), cfg.CPUs)
	}
	s := &System{cfg: cfg}
	s.bus = mem.NewBus(cfg.Mem, cfg.Fidelity.BusContention)
	s.dram = mem.NewDRAM(cfg.Mem, cfg.Fidelity.BusContention)
	s.ctrl = coherence.NewController(cfg.Mem, s.bus, s.dram, cfg.Fidelity.CoherenceTiming)
	for i := 0; i < cfg.CPUs; i++ {
		chip := cpu.NewChipMem(&s.cfg, i, s.ctrl)
		s.ctrl.AttachChip(chip)
		s.chips = append(s.chips, chip)
		s.cpus = append(s.cpus, cpu.New(&s.cfg, i, chip, sources[i]))
	}
	return s, nil
}

// Done reports whether every CPU has drained.
func (s *System) Done() bool {
	for _, c := range s.cpus {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Cycle returns the current global cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// CPU returns processor i (testing and detailed reporting).
func (s *System) CPU(i int) *cpu.CPU { return s.cpus[i] }

// Chip returns chip i's memory hierarchy.
func (s *System) Chip(i int) *cpu.ChipMem { return s.chips[i] }

// Controller returns the coherence controller.
func (s *System) Controller() *coherence.Controller { return s.ctrl }

// CPUReport is the per-processor slice of a Report.
type CPUReport struct {
	// Core is the core counter block.
	Core cpu.Stats
	// Branch is the predictor counter block (zero under perfect branch).
	Branch bpred.Stats
	// L1I, L1D, L2 are the cache counter blocks.
	L1I, L1D, L2 cache.Stats
	// ITLBMissRate and DTLBMissRate are misses per access.
	ITLBMissRate, DTLBMissRate float64
	// TLBStallCycles is the cycles charged to TLB miss penalties (both
	// TLBs), the chip-level counterpart of the core's stall attribution.
	TLBStallCycles uint64
}

// IPC returns this CPU's committed instructions per cycle.
func (r *CPUReport) IPC() float64 { return r.Core.IPC() }

// Report is the machine-level result of a run.
type Report struct {
	// Name echoes the configuration name.
	Name string
	// Workload labels the trace.
	Workload string
	// Cycles is the global cycle count; Committed sums all CPUs. In a
	// sampled run both cover only the detailed measurement windows (the
	// per-CPU counter blocks are measurement-window sums, so every derived
	// rate and the IPC ratio estimator stay correct); Sampling carries the
	// extrapolation to the whole run.
	Cycles    uint64
	Committed uint64
	// CPUs holds the per-processor reports.
	CPUs []CPUReport
	// Coherence is the protocol counter block.
	Coherence coherence.Stats
	// BusWaitCycles and DRAMWaitCycles expose queuing delay.
	BusWaitCycles, DRAMWaitCycles uint64
	// HitCap reports the run ended at the cycle cap (likely deadlock).
	HitCap bool
	// Sampling is non-nil iff the run used sampled simulation; it records
	// the schedule, the fast-forward/detailed split and the error model.
	Sampling *SamplingInfo `json:",omitempty"`
}

// SamplingInfo describes how a sampled run produced its Report: the window
// schedule, how much work ran in each mode, and the per-window CPI spread
// that bounds the estimate's error.
type SamplingInfo struct {
	// Interval, Warmup, Measure and Offset echo the sampling schedule
	// (per-CPU instruction counts).
	Interval, Warmup, Measure, Offset int
	// Windows counts completed measurement windows.
	Windows int
	// FastForwarded counts instructions executed functionally (all CPUs).
	FastForwarded uint64
	// DetailedInsts counts instructions committed on the detailed model,
	// warm-up windows included (all CPUs).
	DetailedInsts uint64
	// MeasuredInsts counts instructions committed inside measurement
	// windows (all CPUs) — the denominator of the CPI estimator.
	MeasuredInsts uint64
	// DetailedCycles is the global cycle count actually simulated in
	// detail (warm-up + measurement).
	DetailedCycles uint64
	// CPIMean and CPIStd summarize the per-window CPI distribution;
	// CPIHalf95 is the 95% confidence half-width (1.96·std/√Windows).
	// The headline sampled CPI is the ratio estimator over all windows
	// (Report.IPC), not CPIMean; CPIMean exists to price the spread.
	CPIMean, CPIStd, CPIHalf95 float64
	// EstimatedCycles extrapolates whole-run per-CPU cycles: measured CPI
	// applied to every instruction the run advanced through.
	EstimatedCycles uint64
}

// MeasuredCycles returns the mean post-warmup cycle count across CPUs —
// the steady-state execution time the paper's analyses compare.
func (r *Report) MeasuredCycles() uint64 {
	if len(r.CPUs) == 0 {
		return r.Cycles
	}
	var sum uint64
	for i := range r.CPUs {
		sum += r.CPUs[i].Core.Cycles
	}
	return sum / uint64(len(r.CPUs))
}

// IPC returns the mean per-CPU IPC — the paper's figure of merit for both
// UP and MP comparisons.
func (r *Report) IPC() float64 {
	var xs []float64
	for i := range r.CPUs {
		xs = append(xs, r.CPUs[i].IPC())
	}
	return stats.Mean(xs)
}

// L1IMissRate returns demand misses per access across CPUs.
func (r *Report) L1IMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L1I })
}

// L1DMissRate returns demand misses per access across CPUs.
func (r *Report) L1DMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L1D })
}

// L2DemandMissRate returns demand misses per demand access across CPUs
// (the paper's "with-Demand"/"without" style metric).
func (r *Report) L2DemandMissRate() float64 {
	return r.missRate(func(c *CPUReport) *cache.Stats { return &c.L2 })
}

// L2TotalMissRate includes prefetch requests (the paper's "with" bars).
func (r *Report) L2TotalMissRate() float64 {
	var acc, miss uint64
	for i := range r.CPUs {
		s := &r.CPUs[i].L2
		acc += s.DemandAccesses + s.PrefetchAccesses
		miss += s.DemandMisses + s.PrefetchMisses
	}
	return stats.Ratio(miss, acc)
}

func (r *Report) missRate(sel func(*CPUReport) *cache.Stats) float64 {
	var acc, miss uint64
	for i := range r.CPUs {
		s := sel(&r.CPUs[i])
		acc += s.DemandAccesses
		miss += s.DemandMisses
	}
	return stats.Ratio(miss, acc)
}

// BranchFailureRate returns mispredictions per branch across CPUs.
func (r *Report) BranchFailureRate() float64 {
	var br, mp uint64
	for i := range r.CPUs {
		br += r.CPUs[i].Branch.Branches()
		mp += r.CPUs[i].Branch.Mispredicts()
	}
	return stats.Ratio(mp, br)
}

// Report reads the machine's counters into a Report.
func (s *System) Report(workload string) Report {
	return s.Counters().Report(s.cfg.Name, workload, s.cycle)
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f l1i=%.4f l1d=%.4f l2=%.4f bpfail=%.4f",
		r.Name, r.Workload, r.IPC(), r.L1IMissRate(), r.L1DMissRate(),
		r.L2DemandMissRate(), r.BranchFailureRate())
}
