package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one op share a trace id; Parent 0 marks a root. Times
// are nanoseconds since the recorder started.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span's layer: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// scope is where the next span goes: its trace and parent.
type scope struct {
	rec    *recorder
	trace  int
	parent int
}

// root opens a scope for a new trace.
func (r *recorder) root(trace int) scope { return scope{rec: r, trace: trace} }

// begin opens a child span and returns the scope under it and the function
// that closes it.
func (s scope) begin(name string) (scope, func()) {
	if s.rec == nil {
		return s, func() {}
	}
	start := time.Now()
	id := s.rec.add(span{Trace: s.trace, Parent: s.parent, Name: name})
	return scope{rec: s.rec, trace: s.trace, parent: id}, func() { s.rec.finish(id, start, time.Now()) }
}

// record adds a finished child span with the given interval and returns
// the scope under it.
func (s scope) record(name string, start, end time.Time) scope {
	if s.rec == nil {
		return s
	}
	id := s.rec.add(span{Trace: s.trace, Parent: s.parent, Name: name})
	s.rec.finish(id, start, end)
	return scope{rec: s.rec, trace: s.trace, parent: id}
}

func (r *recorder) add(sp span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp.ID = len(r.spans) + 1
	r.spans = append(r.spans, sp)
	return sp.ID
}

func (r *recorder) finish(id int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Start = start.Sub(r.t0).Nanoseconds()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = p.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		if x[0] > end {
			end = x[0]
		}
		total += x[1] - end
		end = x[1]
	}
	return total
}

// opSpan names the span around one op of a workload. Its own self time is
// the part of the op no layer span covers.
const opSpan = "bench.op"

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer  string
	SelfNS int64
	Share  float64 // of the total op wall
}

// layerTable attributes the self time of every span at or under an op
// span to the span's layer. The bench row is the unattributed residual.
// Rows are sorted by self time, largest first.
func layerTable(spans []span) (rows []layerRow, opWall int64) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byLayer := make(map[string]int64)
	var walk func(id int)
	walk = func(id int) {
		byLayer[byID[id].layer()] += self[id]
		for _, k := range kids[id] {
			walk(k)
		}
	}
	for _, s := range spans {
		if s.Name == opSpan {
			opWall += s.End - s.Start
			walk(s.ID)
		}
	}
	for l, ns := range byLayer {
		rows = append(rows, layerRow{Layer: l, SelfNS: ns, Share: safeDiv(float64(ns), float64(opWall))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNS != rows[j].SelfNS {
			return rows[i].SelfNS > rows[j].SelfNS
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows, opWall
}

// unattributed is the bench layer's share of op wall in a layer table.
func unattributed(rows []layerRow) float64 {
	for _, r := range rows {
		if r.Layer == "bench" {
			return r.Share
		}
	}
	return 0
}

func printLayerTable(w io.Writer, workload string, rows []layerRow, opWall int64) {
	fmt.Fprintf(w, "# %s per-layer self time over %.1f ms of op wall (bench = unattributed)\n",
		workload, float64(opWall)/1e6)
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-10s %10.1f ms %6.2f%%\n", r.Layer, float64(r.SelfNS)/1e6, 100*r.Share)
	}
}

// writeSpans writes the recorded spans as JSON.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
