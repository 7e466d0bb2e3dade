package system

// The cycle loop. Step is the package's only loop over global cycles: it
// ticks the machine a bounded number of cycles, and RunContext is Step
// calls with a context poll between them. The run engine in internal/core
// drives machines through Step directly — PollStride cycles at a time for
// a lone run, fewer per lockstep round for a batch member — so however a
// machine is driven, it evolves through the same loop body, and a machine
// stepped in any chunking lands on the same state (pinned by
// TestStepMatchesRunContext).
//
// The loop is event-driven per CPU. Each cycle ticks only the CPUs whose
// WakeAt has come, in index order; a CPU whose tick did nothing sleeps
// until its next timestamp, and when every CPU sleeps the global clock
// jumps to the earliest wake-up. Skipped cycles are credited to each CPU's
// counters in bulk, settled before Step returns, so the machine is
// indistinguishable from one that ticks every CPU every cycle (pinned by
// TestStepMatchesEveryCycleReference).

import (
	"context"

	"sparc64v/internal/cpu"
)

// PollStride is the cancellation granularity in global cycles: RunContext,
// and the core run engine for a lone run, poll their context once per
// PollStride cycles. 4K cycles is coarse enough that the check never shows
// up in the hot-loop profile, yet a mid-run cancellation still lands within
// microseconds of wall time.
const PollStride = 4096

// Step advances the machine by at most n cycles, stopping early when every
// CPU drains or the cycle cap is reached. It returns done (machine drained)
// and capped (cycle cap hit); both false means the machine simply used its
// n cycles and wants more. The cap is checked before the drain test each
// cycle, so a machine that drains exactly at the cap reports capped.
func (s *System) Step(n int, maxCycles uint64) (done, capped bool) {
	if maxCycles == 0 {
		maxCycles = 1 << 62
	}
	defer s.settle()
	end := s.cycle + uint64(max(n, 0))
	for s.cycle < end {
		if s.cycle >= maxCycles {
			return false, true
		}
		if s.Done() {
			return true, false
		}
		next := ^uint64(0)
		for _, c := range s.cpus {
			if c.WakeAt() <= s.cycle {
				c.Tick(s.cycle)
			}
			next = min(next, c.WakeAt())
		}
		// Every CPU sleeps until next: jump there, but never past the
		// step or the cap, which both end the step at their own cycle.
		s.cycle = max(s.cycle+1, min(next, end, maxCycles))
	}
	if s.cycle >= maxCycles {
		return false, true
	}
	return s.Done(), false
}

// settle credits every CPU's skipped cycles up to the current cycle.
func (s *System) settle() {
	for _, c := range s.cpus {
		c.Settle(s.cycle)
	}
}

// Work sums the CPUs' work counters (cpu.CPU.Work). Host-side accounting;
// never in a Report.
func (s *System) Work() cpu.WorkCounts {
	var w cpu.WorkCounts
	for _, c := range s.cpus {
		w.Add(c.Work())
	}
	return w
}

// RunContext advances the machine until every CPU drains or maxCycles
// elapse, polling ctx every PollStride cycles. It returns the current cycle,
// whether the run hit the cycle cap, and ctx.Err() if the context was done
// first. The machine state stays consistent on early return — Report still
// snapshots whatever was simulated up to the cancellation cycle.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (uint64, bool, error) {
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return s.cycle, false, ctx.Err()
			default:
			}
		}
		if drained, capped := s.Step(PollStride, maxCycles); drained || capped {
			return s.cycle, capped, nil
		}
	}
}

// SourceReadBound returns the most trace records CPU i can consume in one
// cycle.
func (s *System) SourceReadBound(i int) int { return s.cpus[i].SourceReadBound() }
