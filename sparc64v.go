// Package sparc64v is a from-scratch reproduction of the performance model
// behind "Microarchitecture and Performance Analysis of a SPARC-V9
// Microprocessor for Enterprise Server Systems" (Sakamoto et al.,
// HPCA 2003): a trace-driven, cycle-driven timing model of the SPARC64 V
// out-of-order core paired with an equally detailed memory-system and SMP
// coherence model, plus the paper's complete evaluation harness.
//
// The package is a thin facade over the internal packages; everything a
// downstream user needs is re-exported here:
//
//	model, _ := sparc64v.NewModel(sparc64v.BaseConfig())
//	report, _ := model.RunContext(ctx, sparc64v.TPCC(), sparc64v.RunOptions{Insts: 500_000})
//	fmt.Println(report.IPC(), report.L2DemandMissRate())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package sparc64v

import (
	"sparc64v/internal/config"
	"sparc64v/internal/core"
	"sparc64v/internal/expt"
	"sparc64v/internal/system"
	"sparc64v/internal/trace"
	"sparc64v/internal/verif"
	"sparc64v/internal/workload"
)

// Core model types.
type (
	// Model is the performance model bound to one machine configuration.
	Model = core.Model
	// RunOptions controls trace length, seed and warmup of a run.
	RunOptions = core.RunOptions
	// Report is the result of a simulation run.
	Report = system.Report
	// BreakdownResult is a Figure 7 style stall attribution.
	BreakdownResult = core.BreakdownResult
	// Config is the full machine + model-fidelity configuration.
	Config = config.Config
	// Profile is a synthetic workload description.
	Profile = workload.Profile
	// TraceRecord is one dynamic instruction of a trace.
	TraceRecord = trace.Record
	// TraceSource supplies trace records to a simulated CPU.
	TraceSource = trace.Source
	// Experiment is one named study of the evaluation; Run(ctx, opt)
	// produces its tables and figures.
	Experiment = expt.Study
	// ExperimentResult is one reproduced table or figure.
	ExperimentResult = expt.Result
	// AccuracyStudy is the Figure 19 model-accuracy series.
	AccuracyStudy = verif.AccuracyStudy
	// ReverseProgram is a reverse-traced, exactly replayable test program.
	ReverseProgram = verif.Program
)

// NewModel builds a performance model for the configuration.
func NewModel(cfg Config) (*Model, error) { return core.NewModel(cfg) }

// BaseConfig returns the Table 1 machine (the SPARC64 V as shipped).
func BaseConfig() Config { return config.Base() }

// ModelVersions returns the fidelity ladder v1..v8 used by the accuracy
// methodology (Figure 19).
func ModelVersions() []core.Version { return core.Versions() }

// Workload profiles reproduced from the paper's evaluation.
var (
	// SPECint95 returns the CPU95 integer workload profile.
	SPECint95 = workload.SPECint95
	// SPECfp95 returns the CPU95 floating-point workload profile.
	SPECfp95 = workload.SPECfp95
	// SPECint2000 returns the CPU2000 integer workload profile.
	SPECint2000 = workload.SPECint2000
	// SPECfp2000 returns the CPU2000 floating-point workload profile.
	SPECfp2000 = workload.SPECfp2000
	// TPCC returns the OLTP (TPC-C) workload profile.
	TPCC = workload.TPCC
	// TPCC16P returns the 16-processor TPC-C profile with data sharing.
	TPCC16P = workload.TPCC16P
	// HPC returns the dense multiply-add kernel profile (the machine's
	// high-performance-computing mission; not one of the paper's five).
	HPC = workload.HPC
	// Workloads returns the five uniprocessor profiles in paper order.
	Workloads = workload.UPProfiles
)

// NewTrace builds the deterministic trace generator for a profile
// (cpu selects the per-processor view for MP workloads).
func NewTrace(p Profile, seed int64, cpu int) TraceSource {
	return workload.New(p, seed, cpu)
}

// Experiment harnesses.
var (
	// Table1 reports the base machine parameters.
	Table1 = expt.Table1
	// Experiments lists every study of the evaluation in presentation
	// order, one per paper artifact group ("Figure 7", "Figures 9-10", ...).
	Experiments = expt.Studies
	// AllExperimentsContext runs every experiment in presentation order;
	// on cancellation completed studies still render and missing ones are
	// marked incomplete.
	AllExperimentsContext = expt.AllContext
)

// RunAccuracyStudyContext runs the Figure 19 methodology for one workload.
var RunAccuracyStudyContext = verif.RunAccuracyStudyContext

// ReverseTrace converts a trace into an exactly replayable test program
// (the paper's Reverse Tracer, reference [11]).
func ReverseTrace(src TraceSource) (*ReverseProgram, error) { return verif.FromTrace(src) }
