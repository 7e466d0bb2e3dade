package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatioPercent(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator must be 0")
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio(3,4) = %v", got)
	}
	if got := PercentDelta(90, 100); got != -10 {
		t.Errorf("PercentDelta(90,100) = %v", got)
	}
	if PercentDelta(5, 0) != 0 {
		t.Error("PercentDelta with zero base must be 0")
	}
}

func TestBreakdownFromCycles(t *testing.T) {
	// total 200, perfect-L2 150, perfect-L1 120, perfect-all 100:
	// sx=25%, ibs/tlb=15%, branch=10%, core=50%.
	b := FromCycles(200, 150, 120, 100)
	if b.SX != 0.25 || b.IBSTLB != 0.15 || b.Branch != 0.10 || b.Core != 0.50 {
		t.Fatalf("breakdown = %+v", b)
	}
	if math.Abs(b.Sum()-1) > 1e-12 {
		t.Fatalf("Sum = %v", b.Sum())
	}
	if !strings.Contains(b.String(), "sx=25.0%") {
		t.Errorf("String = %q", b.String())
	}
	// Zero total.
	if z := FromCycles(0, 0, 0, 0); z != (Breakdown{}) {
		t.Errorf("zero-total breakdown = %+v", z)
	}
	// Inverted cycle counts clamp to zero rather than going negative.
	b = FromCycles(100, 120, 110, 100)
	if b.SX != 0 {
		t.Errorf("clamped SX = %v", b.SX)
	}
}

// Property: for any descending cycle sequence the shares are non-negative
// and sum to 1.
func TestBreakdownQuick(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		// Build a descending sequence ≥1.
		total := uint64(a) + uint64(b) + uint64(c) + uint64(d) + 1
		p2 := uint64(b) + uint64(c) + uint64(d) + 1
		p1 := uint64(c) + uint64(d) + 1
		pa := uint64(d) + 1
		bd := FromCycles(total, p2, p1, pa)
		if bd.Core < 0 || bd.Branch < 0 || bd.IBSTLB < 0 || bd.SX < 0 {
			return false
		}
		return math.Abs(bd.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "name", "ipc", "n")
	tb.AddRow("tpcc", 0.5123, uint64(42))
	tb.AddRow("specint", 1.25, 7)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	s := tb.String()
	for _, want := range []string{"Demo", "name", "tpcc", "0.512", "42", "specint"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| name | ipc | n |") || !strings.Contains(md, "| --- |") {
		t.Errorf("markdown output malformed:\n%s", md)
	}
}

func TestTableCellFormats(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(int64(-3), 2.0) // floats render at a single width, integral or not
	s := tb.String()
	if !strings.Contains(s, "-3") || !strings.Contains(s, "2.000") {
		t.Errorf("cell formatting: %q", s)
	}
	tb.AddRow("x", 1.975)
	s = tb.String()
	if !strings.Contains(s, "1.975") || strings.Contains(s, "2.0 ") {
		t.Errorf("mixed-column formatting: %q", s)
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := MaxAbs([]float64{-3, 2}); got != 3 {
		t.Errorf("MaxAbs = %v", got)
	}
}
