package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads a result file: records as written to
// bench/out/result.json, one JSON object after another.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

// side is one commit's runs of one workload × metric.
type side struct {
	values          []float64
	q1, med, q3     float64
	spread          float64 // (q3 - q1) / median
	lowest, highest float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.med, s.q3 = quartiles(values)
	s.spread = safeDiv(s.q3-s.q1, s.med)
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.lowest, s.highest = sorted[0], sorted[len(sorted)-1]
	return s
}

// verdict judges the change (b) against the parent (a) for one metric:
//
//   - better: the change wins at least nine tenths of the pairs (runs
//     paired in order, ties counting for neither) and its median is better
//     by more than the parent's own spread; or every change run beats
//     every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, or every change run loses to every parent run;
//   - unresolved: either side's spread exceeds the bound;
//   - same: none of the above.
func verdict(a, b side, d metricDecl) string {
	sign := 1.0
	if d.Better == "lower" {
		sign = -1
	}
	gain := sign * safeDiv(b.med-a.med, a.med)
	allBetter := (sign > 0 && b.lowest > a.highest) || (sign < 0 && b.highest < a.lowest)
	allWorse := (sign > 0 && b.highest < a.lowest) || (sign < 0 && b.lowest > a.highest)
	n := min(len(a.values), len(b.values))
	wins := 0
	for i := 0; i < n; i++ {
		if sign*b.values[i] > sign*a.values[i] {
			wins++
		}
	}
	switch {
	case allBetter:
		return "better"
	case allWorse:
		return "worse"
	case a.spread > d.Bound || b.spread > d.Bound:
		return "unresolved"
	case gain < -d.Bound:
		return "worse"
	case n > 0 && float64(wins) >= 0.9*float64(n) && gain > a.spread:
		return "better"
	}
	return "same"
}

// compareFiles prints, for every workload × end-to-end metric, each
// side's median and quartiles and the verdict. Traced records are
// ignored: end-to-end metrics come from untraced runs.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	var sides [2]map[string]map[string][]float64
	for i, path := range []string{parentPath, changePath} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(w, "sparcbench: %v\n", err)
			return 1
		}
		sides[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				sides[i][r.Workload][name] = append(sides[i][r.Workload][name], v.Value)
			}
		}
	}
	fmt.Fprintf(w, "%-14s %-16s %5s %32s %32s  %s\n", "workload", "metric", "bound",
		"parent q1/median/q3 (n)", "change q1/median/q3 (n)", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			xa, xb := sides[0][wl][d.Name], sides[1][wl][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a, b := newSide(xa), newSide(xb)
			fmt.Fprintf(w, "%-14s %-16s %4.0f%% %32s %32s  %s\n", wl, d.Name, 100*d.Bound,
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", a.q1, a.med, a.q3, len(xa)),
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", b.q1, b.med, b.q3, len(xb)), verdict(a, b, d))
		}
	}
	return 0
}
