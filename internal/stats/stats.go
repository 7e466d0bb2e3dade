// Package stats provides the counting and reporting primitives shared by
// the simulator: rate/ratio helpers, a CPI (cycles-per-instruction) stack
// used for the paper's Figure 7 style execution-time breakdowns, and a
// plain-text table renderer for experiment output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PercentDelta returns the relative difference of x from base, in percent:
// 100*(x-base)/base. It is how the paper expresses all of its IPC ratios.
func PercentDelta(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (x - base) / base
}

// Breakdown is an execution-time decomposition in the style of the paper's
// Figure 7: the share of execution time attributable to the processor core,
// branch-prediction failures, L1/TLB misses ("ibs/tlb") and L2 misses
// ("sx"). Shares are fractions summing to ~1.
type Breakdown struct {
	// Core is time the I-unit and E-unit are the limit (perfect everything).
	Core float64
	// Branch is stall time from branch prediction failures.
	Branch float64
	// IBSTLB is stall time from L1 cache misses and TLB misses.
	IBSTLB float64
	// SX is stall time from L2 cache misses (serviced by the SX-unit).
	SX float64
}

// FromCycles builds a Breakdown from the four cycle counts obtained by the
// perfect-ization methodology: total (real machine), perfectL2 (all L2
// accesses hit), perfectL1 (additionally all L1/TLB accesses hit) and
// perfectAll (additionally perfect branch prediction).
//
// Each successive model removes one stall source, so the deltas attribute
// execution time exactly as the paper does. Negative deltas (possible from
// second-order interactions) are clamped to zero.
func FromCycles(total, perfectL2, perfectL1, perfectAll uint64) Breakdown {
	if total == 0 {
		return Breakdown{}
	}
	t := float64(total)
	clamp := func(a, b uint64) float64 {
		if a <= b {
			return 0
		}
		return float64(a-b) / t
	}
	return Breakdown{
		SX:     clamp(total, perfectL2),
		IBSTLB: clamp(perfectL2, perfectL1),
		Branch: clamp(perfectL1, perfectAll),
		Core:   float64(perfectAll) / t,
	}
}

// String renders the breakdown as percentages.
func (b Breakdown) String() string {
	return fmt.Sprintf("core=%.1f%% branch=%.1f%% ibs/tlb=%.1f%% sx=%.1f%%",
		100*b.Core, 100*b.Branch, 100*b.IBSTLB, 100*b.SX)
}

// Sum returns the total of all shares (≈1 when the clamping never fired).
func (b Breakdown) Sum() float64 { return b.Core + b.Branch + b.IBSTLB + b.SX }

// Table accumulates rows of mixed string/number cells and renders them as
// an aligned plain-text table. It is the output backend for the experiment
// harnesses and the sweep tool.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells may be string, fmt.Stringer, int, uint64,
// int64, or float64 (rendered with 3 significant decimals).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
}

func formatCell(c any) string {
	switch v := c.(type) {
	case string:
		return v
	case fmt.Stringer:
		return v.String()
	case float64:
		// One width for every float: integral values used to render "%.1f"
		// while fractional ones rendered "%.3f", so a column mixing 2.0 and
		// 1.975 came out ragged ("2.0" over "1.975") and the same quantity
		// changed width across configurations.
		return fmt.Sprintf("%.3f", v)
	case int:
		return fmt.Sprintf("%d", v)
	case int64:
		return fmt.Sprintf("%d", v)
	case uint64:
		return fmt.Sprintf("%d", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Rows returns the number of data rows added so far.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(width) {
				pad = width[i] - len(c)
			}
			if i == 0 { // left-align the label column
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table (used when
// regenerating EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var sb strings.Builder
	if t.title != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.title)
	}
	sb.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MaxAbs returns the maximum absolute value in xs (0 for empty input).
func MaxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
