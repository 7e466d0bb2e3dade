package coherence

// Deliberate coherence-protocol fault injection for the metamorphic
// verification harness, mirroring internal/cache's fault machinery; the
// harness's fault table (metamorph.InjectFault) names it "dropinval".
//
// The tso-outcomes check (internal/metamorph, driven by internal/litmus)
// proves it can catch real memory-ordering bugs by planting one here and
// demanding a forbidden litmus outcome surfaces. The fault models the
// classic SMP escape a logic-simulator cross-check exists to find: a snoop
// invalidation message lost on the bus, leaving a remote chip reading a
// stale line forever.
//
// Injection is process-global but sampled per Controller at construction
// (like cache.New samples its fault), so concurrently running systems each
// carry their own deterministic drop counter and parallel check fan-out
// stays race-free. Arm before building a model; never mid-run.

// Fault selects an injected protocol bug.
type Fault uint8

const (
	// FaultNone disables injection (the default).
	FaultNone Fault = iota
	// FaultDropInvalidate silently drops every other snoop invalidation
	// the controller would deliver (the 1st, 3rd, 5th, ... per
	// controller). Dropping only half is deliberate: the companion
	// message of an MP/IRIW pair still lands, so the stale copy is
	// *observably* stale — a reader sees the new flag but the old data,
	// exactly the forbidden outcome the litmus harness must flag.
	FaultDropInvalidate
)

// injected is the process-global fault, sampled by NewController.
var injected Fault

// InjectFault arms a fault for every controller built afterwards. Call
// with FaultNone to disarm. Not safe to call while simulations run.
func InjectFault(f Fault) { injected = f }

// InjectedFault returns the currently armed fault.
func InjectedFault() Fault { return injected }

// dropInvalidate reports whether the controller's next snoop invalidation
// should be lost. The parity counter lives on the controller, so each
// simulated system drops deterministically regardless of what else runs
// in the process.
func (c *Controller) dropInvalidate() bool {
	if c.fault != FaultDropInvalidate {
		return false
	}
	c.dropCount++
	return c.dropCount&1 == 1
}
