package isa

import (
	"testing"
	"testing/quick"
)

// Hand-assembled SPARC-V9 words. Field packing helpers keep the tests
// readable.

func f3(op, rd, op3, rs1 uint32, imm bool, rs2OrSimm uint32) uint32 {
	w := op<<30 | rd<<25 | op3<<19 | rs1<<14
	if imm {
		w |= 1<<13 | rs2OrSimm&0x1fff
	} else {
		w |= rs2OrSimm & 31
	}
	return w
}

// isFPReg reports whether r names a floating-point architectural register.
func isFPReg(r uint8) bool { return r >= FPRegBase && r < NumRegs }

func TestDecodeCall(t *testing.T) {
	// CALL with displacement +0x40 words.
	w := uint32(1)<<30 | 0x10
	d := Decode(w)
	if d.Class != Call || d.Rd != 15 || d.Disp != 0x40 || !d.CondAlways {
		t.Fatalf("CALL decoded as %+v", d)
	}
	// Negative displacement sign-extends.
	w = uint32(1)<<30 | 0x3fffffff
	if d := Decode(w); d.Disp != -4 {
		t.Fatalf("CALL -1 word disp = %d", d.Disp)
	}
}

func TestDecodeSethiNop(t *testing.T) {
	// NOP = SETHI 0, %g0.
	if d := Decode(0x01000000); d.Class != Nop {
		t.Fatalf("NOP decoded as %+v", d)
	}
	// SETHI 0x1234, %o0 (reg 8).
	w := uint32(8)<<25 | uint32(op2SETHI)<<22 | 0x1234
	d := Decode(w)
	if d.Class != IntALU || d.Rd != 8 || !d.Imm {
		t.Fatalf("SETHI decoded as %+v", d)
	}
}

func TestDecodeBranches(t *testing.T) {
	// BNE (cond=9) with disp22 = +8 words, annul set.
	w := uint32(1)<<29 | uint32(9)<<25 | uint32(op2Bicc)<<22 | 8
	d := Decode(w)
	if d.Class != Branch || !d.Annul || d.Disp != 32 || d.CondAlways {
		t.Fatalf("BNE decoded as %+v", d)
	}
	// BA (cond=8): unconditional.
	w = uint32(8)<<25 | uint32(op2Bicc)<<22 | 0x3fffff // disp -1 word
	d = Decode(w)
	if !d.CondAlways || d.Disp != -4 {
		t.Fatalf("BA decoded as %+v", d)
	}
	// BPcc uses disp19.
	w = uint32(9)<<25 | uint32(op2BPcc)<<22 | 4
	if d := Decode(w); d.Class != Branch || d.Disp != 16 {
		t.Fatalf("BPcc decoded as %+v", d)
	}
	// FBfcc is a branch.
	w = uint32(9)<<25 | uint32(op2FBfcc)<<22 | 4
	if d := Decode(w); d.Class != Branch {
		t.Fatalf("FBfcc decoded as %+v", d)
	}
}

func TestDecodeArithmetic(t *testing.T) {
	// add %o0, %o1, %o2 -> rd=10, rs1=8, rs2=9.
	d := Decode(f3(2, 10, op3ADD, 8, false, 9))
	if d.Class != IntALU || d.Rd != 10 || d.Rs1 != 8 || d.Rs2 != 9 || d.Imm {
		t.Fatalf("ADD decoded as %+v", d)
	}
	// add %o0, 42, %o2 (immediate).
	d = Decode(f3(2, 10, op3ADD, 8, true, 42))
	if !d.Imm || d.Rs2 != RegNone {
		t.Fatalf("ADDI decoded as %+v", d)
	}
	if d := Decode(f3(2, 10, op3MULX, 8, false, 9)); d.Class != IntMul {
		t.Fatalf("MULX decoded as %+v", d)
	}
	if d := Decode(f3(2, 10, op3SDIVX, 8, false, 9)); d.Class != IntDiv {
		t.Fatalf("SDIVX decoded as %+v", d)
	}
	if d := Decode(f3(2, 10, op3SLL, 8, true, 3)); d.Class != IntALU {
		t.Fatalf("SLL decoded as %+v", d)
	}
}

func TestDecodeControlRegisterOps(t *testing.T) {
	// JMPL with rd=%o7 (15) is a call.
	if d := Decode(f3(2, 15, op3JMPL, 8, true, 0)); d.Class != Call {
		t.Fatalf("JMPL->call decoded as %+v", d)
	}
	// JMPL %i7+8, %g0 is a return (ret).
	if d := Decode(f3(2, 0, op3JMPL, 31, true, 8)); d.Class != Return {
		t.Fatalf("ret decoded as %+v", d)
	}
	// JMPL elsewhere: indirect jump -> Branch.
	if d := Decode(f3(2, 1, op3JMPL, 9, false, 0)); d.Class != Branch {
		t.Fatalf("indirect JMPL decoded as %+v", d)
	}
	// SAVE/RESTORE serialize.
	if d := Decode(f3(2, 14, op3SAVE, 14, true, 0x1fc0)); d.Class != Special {
		t.Fatalf("SAVE decoded as %+v", d)
	}
	if d := Decode(f3(2, 0, op3RESTORE, 0, false, 0)); d.Class != Special {
		t.Fatalf("RESTORE decoded as %+v", d)
	}
}

func TestDecodeFP(t *testing.T) {
	fpop := func(opf uint32) uint32 {
		return f3(2, 4, op3FPop1, 2, false, 6) | opf<<5
	}
	cases := map[uint32]Class{
		0x42: FPAdd, // FADDd
		0x46: FPAdd, // FSUBd
		0x4a: FPMul, // FMULd
		0x4e: FPDiv, // FDIVd
		0x2a: FPDiv, // FSQRTd
		0x69: FPMul, // FsMULd
		0xc6: FPAdd, // FdTOs (convert)
	}
	for opf, want := range cases {
		d := Decode(fpop(opf))
		if d.Class != want {
			t.Errorf("FPop opf=%#x decoded as %v, want %v", opf, d.Class, want)
		}
		if !isFPReg(d.Rd) || !isFPReg(d.Rs1) || !isFPReg(d.Rs2) {
			t.Errorf("FPop opf=%#x registers not FP: %+v", opf, d)
		}
	}
}

func TestDecodeMemory(t *testing.T) {
	// ldx [%o0+8], %o1.
	d := Decode(f3(3, 9, op3LDX, 8, true, 8))
	if d.Class != Load || d.Rd != 9 || d.Rs1 != 8 {
		t.Fatalf("LDX decoded as %+v", d)
	}
	if AccessBytes(f3(3, 9, op3LDX, 8, true, 8)) != 8 {
		t.Fatal("LDX size")
	}
	// stw %o2, [%o0].
	d = Decode(f3(3, 10, op3STW, 8, true, 0))
	if d.Class != Store || d.Rd != RegNone || d.Rs2 != 10 {
		t.Fatalf("STW decoded as %+v (store data must be a source)", d)
	}
	if AccessBytes(f3(3, 10, op3STW, 8, true, 0)) != 4 {
		t.Fatal("STW size")
	}
	// ldd [%o0], %f2 (FP load).
	d = Decode(f3(3, 2, op3LDDF, 8, true, 0))
	if d.Class != Load || !isFPReg(d.Rd) {
		t.Fatalf("LDDF decoded as %+v", d)
	}
	// CASX is an atomic -> Special.
	if d := Decode(f3(3, 1, op3CASXA, 8, false, 2)); d.Class != Special {
		t.Fatalf("CASXA decoded as %+v", d)
	}
	// Byte loads.
	if AccessBytes(f3(3, 9, op3LDUB, 8, true, 0)) != 1 {
		t.Fatal("LDUB size")
	}
	if AccessBytes(0) != 0 {
		t.Fatal("non-memory AccessBytes")
	}
}

// Property: Decode never panics and always produces a valid class and
// in-range registers, for any 32-bit word.
func TestDecodeTotalQuick(t *testing.T) {
	f := func(word uint32) bool {
		d := Decode(word)
		if !d.Class.Valid() {
			return false
		}
		for _, r := range []uint8{d.Rd, d.Rs1, d.Rs2} {
			if r != RegNone && r >= NumRegs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
