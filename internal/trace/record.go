// Package trace defines the instruction-trace format that drives the
// performance model, together with readers, writers and sampling utilities.
//
// The paper's model is trace-driven: instruction traces captured on a real
// machine (application and, for TPC-C, kernel code) are replayed through the
// timing model. Our Record carries exactly the information the timing model
// consumes: the instruction class, the architectural registers that create
// dependencies, the effective address of memory operations, and the actual
// outcome of control transfers.
package trace

import (
	"fmt"

	"sparc64v/internal/isa"
)

// Record is one dynamic instruction in a trace.
//
// Records describe the *actual* executed path: for branches, Taken/Target
// give the architected outcome; the model runs its predictor against the
// record to decide whether fetch went down the wrong path (wrong-path
// instructions are modeled as lost fetch cycles, the standard trace-driven
// approximation).
type Record struct {
	// PC is the instruction address.
	PC uint64
	// EA is the effective address of a memory access (Load/Store), or the
	// branch target for taken control transfers.
	EA uint64
	// Op is the instruction class.
	Op isa.Class
	// Dst is the destination architectural register, or isa.RegNone.
	Dst uint8
	// Src1, Src2 are source architectural registers, or isa.RegNone.
	Src1, Src2 uint8
	// Size is the access size in bytes for memory operations (1,2,4,8).
	Size uint8
	// Taken reports whether a control transfer was taken.
	Taken bool
}

// HasDst reports whether the record writes an architectural register.
// Writes to %g0 are discarded by hardware and create no dependency.
func (r *Record) HasDst() bool { return r.Dst != isa.RegNone && r.Dst != isa.G0 }

// NextPC returns the address of the next instruction actually executed.
func (r *Record) NextPC() uint64 {
	if r.Op.IsBranch() && r.Taken {
		return r.EA
	}
	return r.PC + isa.InstrBytes
}

// Validate checks internal consistency of the record.
func (r *Record) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("trace: invalid class %d", r.Op)
	}
	if r.Op.IsMemory() {
		switch r.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("trace: memory op with size %d", r.Size)
		}
	}
	if r.Dst != isa.RegNone && r.Dst >= isa.NumRegs {
		return fmt.Errorf("trace: dst register %d out of range", r.Dst)
	}
	if r.Src1 != isa.RegNone && r.Src1 >= isa.NumRegs {
		return fmt.Errorf("trace: src1 register %d out of range", r.Src1)
	}
	if r.Src2 != isa.RegNone && r.Src2 >= isa.NumRegs {
		return fmt.Errorf("trace: src2 register %d out of range", r.Src2)
	}
	return nil
}

// String renders the record in a compact single-line form for debugging
// and for the traceinfo tool.
func (r *Record) String() string {
	switch {
	case r.Op.IsMemory():
		return fmt.Sprintf("%#x %s ea=%#x sz=%d d=%d s=%d,%d",
			r.PC, r.Op, r.EA, r.Size, int8(r.Dst), int8(r.Src1), int8(r.Src2))
	case r.Op.IsBranch():
		t := "nt"
		if r.Taken {
			t = "t"
		}
		return fmt.Sprintf("%#x %s %s tgt=%#x", r.PC, r.Op, t, r.EA)
	default:
		return fmt.Sprintf("%#x %s d=%d s=%d,%d",
			r.PC, r.Op, int8(r.Dst), int8(r.Src1), int8(r.Src2))
	}
}

// Source supplies a stream of trace records to a simulated CPU. A Source is
// single-consumer; Next returns false when the trace is exhausted.
type Source interface {
	// Next writes the next record into *r and reports whether one was
	// available. Implementations must not retain r.
	Next(r *Record) bool
}

// SliceSource replays an in-memory slice of records. It is the simplest
// Source and the one used throughout the tests.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a Source replaying recs in order.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next(r *Record) bool {
	if s.pos >= len(s.recs) {
		return false
	}
	*r = s.recs[s.pos]
	s.pos++
	return true
}

// Collect drains up to max records from src (all records if max <= 0).
func Collect(src Source, max int) []Record {
	var out []Record
	var r Record
	for src.Next(&r) {
		out = append(out, r)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// LimitSource caps an underlying source at n records.
type LimitSource struct {
	src  Source
	left int
}

// NewLimitSource returns a Source that yields at most n records from src.
func NewLimitSource(src Source, n int) *LimitSource { return &LimitSource{src: src, left: n} }

// Next implements Source.
func (l *LimitSource) Next(r *Record) bool {
	if l.left <= 0 {
		return false
	}
	if !l.src.Next(r) {
		l.left = 0
		return false
	}
	l.left--
	return true
}
