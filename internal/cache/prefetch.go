package cache

import "sparc64v/internal/assoc"

// Prefetcher implements the SPARC64 V L2 hardware prefetch (section 3.4):
// triggered by an L1 cache miss, it brings lines the workload is expected
// to demand soon into the L2. There is no prefetch buffer (the designers
// "decided against using a buffer that stores data from a fetched line
// temporarily") — prefetched lines go straight into the L2, where they
// compete for capacity (the pollution visible in Figure 17).
//
// The predictor is next-line prefetch plus a small stride table keyed by
// 4KB region, which captures both sequential streams and the "chain access
// pattern of memory addresses" (pointer chases laid out in order) the
// paper says the algorithm fits.
type Prefetcher struct {
	table   assoc.Table
	entries []pfEntry // under the way's index in table
	mask    uint64
	degree  int
	stride  bool
	scratch []uint64
}

// pfEntry is one region's stride state, tagged with the region number.
type pfEntry struct {
	lastLine uint64
	stride   int64
}

// regionShift groups miss addresses into 4KB regions for stride detection.
const regionShift = 12

// NewPrefetcher builds a prefetcher issuing up to degree lines per trigger;
// stride enables the stride detector (next-line only otherwise). The table
// is direct mapped with entries slots (a power of two, by config.Validate).
func NewPrefetcher(degree int, stride bool, entries int) *Prefetcher {
	return &Prefetcher{
		table:   assoc.New(entries, 1),
		entries: make([]pfEntry, entries),
		mask:    uint64(entries - 1),
		degree:  degree,
		stride:  stride,
		scratch: make([]uint64, 0, degree),
	}
}

// OnMiss is called with the line address of an L1 demand miss; it returns
// the line addresses to prefetch into the L2. The returned slice is reused
// across calls.
func (p *Prefetcher) OnMiss(lineAddr uint64) []uint64 {
	p.scratch = p.scratch[:0]
	step := int64(1)
	if p.stride {
		region := lineAddr >> (regionShift - 6)
		i, present, _, _ := p.table.Insert(region&p.mask, region, nil)
		e := &p.entries[i]
		if present {
			if d := int64(lineAddr) - int64(e.lastLine); d != 0 && d == e.stride {
				step = d // confirmed stride
			} else if d != 0 {
				e.stride = d
			}
			e.lastLine = lineAddr
		} else {
			*e = pfEntry{lastLine: lineAddr, stride: 1}
		}
	}
	next := int64(lineAddr)
	for i := 0; i < p.degree; i++ {
		next += step
		if next <= 0 {
			break
		}
		p.scratch = append(p.scratch, uint64(next))
	}
	return p.scratch
}

// Bank returns the L1 operand cache bank an access maps to. The SPARC64 V
// L1D is organized as eight four-byte banks; two same-cycle requests to the
// same bank conflict and the younger retries (section 3.2). A banked
// geometry has bankBytes ≥ 1 (config.CacheGeometry.Validate).
func Bank(addr uint64, banks, bankBytes int) int {
	if banks <= 1 {
		return 0
	}
	return int(addr / uint64(bankBytes) % uint64(banks))
}
