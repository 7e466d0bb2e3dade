// Package isa models the subset of the SPARC-V9 instruction set
// architecture needed to drive a trace-driven timing simulator.
//
// The performance model is timing-only: it never computes architectural
// values. What it needs from the ISA is a classification of each dynamic
// instruction (which execution resource it uses, its execution latency
// class, whether it touches memory or redirects control flow) and the
// register identifiers that create data dependencies. This package provides
// exactly that, mirroring how the SPARC64 V routes instructions to its
// reservation stations: RSA for address generation, RSE for fixed-point,
// RSF for floating-point, and RSBR for branches.
package isa

import "fmt"

// Class identifies the execution class of a dynamic instruction. The class
// determines the reservation station the instruction is queued in, the
// execution unit it needs, and its base execution latency.
type Class uint8

// Instruction classes. The grouping follows the SPARC64 V dispatch rules
// described in the paper (section 3): integer and floating-point operations
// go to RSE/RSF, memory operations occupy RSA (for address generation) plus
// a load- or store-queue entry, and control transfers go to RSBR.
const (
	// Nop consumes an issue slot and a window entry but no execution unit.
	Nop Class = iota
	// IntALU is a single-cycle fixed-point operation (add, logic, shift,
	// sethi, compare, ...). Executes on one of the two EX units.
	IntALU
	// IntMul is a fixed-point multiply (longer latency, EX unit).
	IntMul
	// IntDiv is a fixed-point divide (long latency, non-pipelined, EX unit).
	IntDiv
	// Load is a memory read: RSA + EAG for address generation, a load-queue
	// entry, and an L1 operand-cache access.
	Load
	// Store is a memory write: RSA + EAG, a store-queue entry; data is
	// written to the L1 operand cache after commit.
	Store
	// FPAdd is a floating-point add/sub/convert/compare (FL unit).
	FPAdd
	// FPMul is a floating-point multiply (FL unit).
	FPMul
	// FPMulAdd is a fused multiply-add; the SPARC64 V has two FL units that
	// each execute multiply-add, which the paper calls out as an HPC feature.
	FPMulAdd
	// FPDiv is a floating-point divide/sqrt (long latency, non-pipelined).
	FPDiv
	// Branch is a conditional branch (RSBR). The trace records its outcome.
	Branch
	// Call is an unconditional call; it pushes a return address (RAS).
	Call
	// Return is a return-from-subroutine; its target is predicted by the RAS.
	Return
	// Special covers serializing or otherwise exceptional instructions
	// (SAVE/RESTORE window spills, MEMBAR, atomics, traps). Their modeling
	// fidelity is a model-version knob: early model versions charge a fixed
	// experimental penalty, later versions model the actual serialization
	// (the paper's v5 accuracy event).
	Special
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	Nop:      "nop",
	IntALU:   "alu",
	IntMul:   "mul",
	IntDiv:   "div",
	Load:     "load",
	Store:    "store",
	FPAdd:    "fadd",
	FPMul:    "fmul",
	FPMulAdd: "fmadd",
	FPDiv:    "fdiv",
	Branch:   "branch",
	Call:     "call",
	Return:   "return",
	Special:  "special",
}

// String returns the short mnemonic-style name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Valid reports whether c is a defined instruction class.
func (c Class) Valid() bool { return c < numClasses }

// IsMemory reports whether the class accesses the L1 operand cache.
func (c Class) IsMemory() bool { return c == Load || c == Store }

// IsBranch reports whether the class is a control transfer handled by RSBR.
func (c Class) IsBranch() bool { return c == Branch || c == Call || c == Return }

// IsFloat reports whether the class executes on a floating-point (FL) unit.
func (c Class) IsFloat() bool {
	switch c {
	case FPAdd, FPMul, FPMulAdd, FPDiv:
		return true
	}
	return false
}

// IsInt reports whether the class executes on a fixed-point (EX) unit.
func (c Class) IsInt() bool {
	switch c {
	case IntALU, IntMul, IntDiv:
		return true
	}
	return false
}

// Register identifiers. The model uses a flat architectural register space:
// integer registers occupy [0,32) and floating-point registers [32,64).
// SPARC register windows are not renamed here; window manipulation shows up
// as Special instructions, matching how the performance model treats them.
const (
	// RegNone marks an absent operand.
	RegNone uint8 = 0xFF
	// G0 is the SPARC %g0 hard-wired zero register: never a dependency.
	G0 uint8 = 0
	// NumIntRegs is the number of architectural integer registers modeled.
	NumIntRegs = 32
	// FPRegBase is the first floating-point register identifier.
	FPRegBase uint8 = 32
	// NumFPRegs is the number of architectural FP registers modeled.
	NumFPRegs = 32
	// NumRegs is the total size of the flat register space.
	NumRegs = NumIntRegs + NumFPRegs
)

// IsIntReg reports whether r names an integer architectural register.
func IsIntReg(r uint8) bool { return r < FPRegBase }

// LatencyClass captures the base execution latency, in cycles, of each
// class on the SPARC64 V execution pipelines. These are the "minimum three
// stages" pipelines of section 3.1: the values below are the execute-stage
// occupancy; dispatch-to-use timing is assembled by the core model.
type LatencyClass struct {
	// Cycles is the execution latency.
	Cycles int
	// Pipelined reports whether a new operation may enter the unit each
	// cycle (false for divides).
	Pipelined bool
}

// DefaultLatencies returns the per-class execution latencies used by the
// base machine model (Table 1 machine). Callers may copy and modify.
func DefaultLatencies() [NumClasses]LatencyClass {
	return [NumClasses]LatencyClass{
		Nop:      {Cycles: 1, Pipelined: true},
		IntALU:   {Cycles: 1, Pipelined: true},
		IntMul:   {Cycles: 5, Pipelined: true},
		IntDiv:   {Cycles: 37, Pipelined: false},
		Load:     {Cycles: 1, Pipelined: true}, // address generation; cache adds the rest
		Store:    {Cycles: 1, Pipelined: true},
		FPAdd:    {Cycles: 4, Pipelined: true},
		FPMul:    {Cycles: 4, Pipelined: true},
		FPMulAdd: {Cycles: 4, Pipelined: true},
		FPDiv:    {Cycles: 28, Pipelined: false},
		Branch:   {Cycles: 1, Pipelined: true},
		Call:     {Cycles: 1, Pipelined: true},
		Return:   {Cycles: 1, Pipelined: true},
		Special:  {Cycles: 1, Pipelined: true},
	}
}

// InstrBytes is the fixed SPARC instruction size in bytes.
const InstrBytes = 4
