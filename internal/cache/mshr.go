package cache

import "fmt"

// MSHRs model a non-blocking cache's miss-status holding registers: the
// bound on outstanding line misses. The timing model installs a missing
// line's state immediately at miss time (the hierarchy computes the fill
// cycle up front), so each MSHR entry carries the fill cycle; secondary
// misses to the same line merge onto the existing entry.
type MSHRs struct {
	entries []mshrEntry
}

type mshrEntry struct {
	lineAddr uint64
	readyAt  uint64
	valid    bool
}

// NewMSHRs returns a file with n entries; n < 1, which
// config.CacheGeometry.Validate rejects, panics.
func NewMSHRs(n int) *MSHRs {
	if n < 1 {
		panic(fmt.Sprintf("cache: %d MSHRs < 1", n))
	}
	return &MSHRs{entries: make([]mshrEntry, n)}
}

// expire frees entries whose fill completed at or before cycle.
func (m *MSHRs) expire(cycle uint64) {
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].readyAt <= cycle {
			m.entries[i].valid = false
		}
	}
}

// Pending returns the fill cycle of an outstanding miss on lineAddr, if
// one exists (a secondary miss merges onto it).
func (m *MSHRs) Pending(lineAddr uint64, cycle uint64) (readyAt uint64, ok bool) {
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.readyAt > cycle && e.lineAddr == lineAddr {
			return e.readyAt, true
		}
	}
	return 0, false
}

// CanAllocate reports whether an entry is free at cycle, without claiming
// it. Callers must check this before performing the (bus- and memory-
// billing) work that produces the fill time, so that a refused miss does
// not consume bandwidth.
func (m *MSHRs) CanAllocate(cycle uint64) bool {
	m.expire(cycle)
	for i := range m.entries {
		if !m.entries[i].valid {
			return true
		}
	}
	return false
}

// Allocate reserves an entry for a new outstanding miss that will fill at
// readyAt. It fails (returning false) when all entries are busy — the
// requester must retry, which is how MSHR pressure turns into stall time.
func (m *MSHRs) Allocate(lineAddr, readyAt, cycle uint64) bool {
	m.expire(cycle)
	for i := range m.entries {
		e := &m.entries[i]
		if !e.valid {
			*e = mshrEntry{lineAddr: lineAddr, readyAt: readyAt, valid: true}
			return true
		}
	}
	return false
}
