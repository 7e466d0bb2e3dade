package isa

import "testing"

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Nop:      "nop",
		IntALU:   "alu",
		Load:     "load",
		Store:    "store",
		FPMulAdd: "fmadd",
		Branch:   "branch",
		Special:  "special",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(200).String(); got != "class(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	for c := Class(0); c.Valid(); c++ {
		mem := c == Load || c == Store
		if c.IsMemory() != mem {
			t.Errorf("%v.IsMemory() = %v, want %v", c, c.IsMemory(), mem)
		}
		br := c == Branch || c == Call || c == Return
		if c.IsBranch() != br {
			t.Errorf("%v.IsBranch() = %v, want %v", c, c.IsBranch(), br)
		}
		if c.IsInt() && c.IsFloat() {
			t.Errorf("%v is both int and float", c)
		}
	}
	if Class(250).Valid() {
		t.Error("Class(250).Valid() = true")
	}
}

func TestRegisterSpaces(t *testing.T) {
	if !IsIntReg(G0) || !IsIntReg(31) {
		t.Error("integer register space misclassified")
	}
	if IsIntReg(FPRegBase) || IsIntReg(RegNone) {
		t.Error("non-integer register classified as int")
	}
}

func TestDefaultLatencies(t *testing.T) {
	lat := DefaultLatencies()
	for c := Class(0); c.Valid(); c++ {
		l := lat[c]
		if l.Cycles < 1 {
			t.Errorf("%v latency %d < 1", c, l.Cycles)
		}
	}
	if lat[IntDiv].Pipelined || lat[FPDiv].Pipelined {
		t.Error("divides must be non-pipelined")
	}
	if !lat[IntALU].Pipelined {
		t.Error("ALU must be pipelined")
	}
	if lat[IntALU].Cycles != 1 {
		t.Errorf("ALU latency = %d, want 1", lat[IntALU].Cycles)
	}
}
