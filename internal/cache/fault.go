package cache

// Deliberate fault injection for the metamorphic verification harness.
//
// The harness (internal/metamorph, cmd/verify -inject) proves it can catch
// real model bugs by planting one and demanding that at least one catalog
// check fails. The harness's fault table (metamorph.InjectFault) names
// them ("l1index"); this package only implements them. The faults here are the classic cache-model bugs the
// paper's logic-simulator cross-check was designed to surface; they are
// compile-time-real but default-off, and nothing on the simulation hot
// path pays for them: a fault is sampled once in New and baked into the
// cache's indexing constants.
//
// Injection is process-global and not synchronized: set it before building
// any model (cmd/verify does so at startup; tests do so before running the
// catalog) and never mid-run.

// Fault selects an injected model bug.
type Fault uint8

const (
	// FaultNone disables injection (the default).
	FaultNone Fault = iota
	// FaultIndexBits drops the top set-index bit of every cache with at
	// least four sets — the "off-by-one in the index-bit count" bug: half
	// the sets become unreachable, so the cache behaves at half capacity
	// while reporting its configured geometry.
	FaultIndexBits
)

// injected is the process-global fault, sampled by New.
var injected Fault

// InjectFault arms a fault for every cache built afterwards. Call with
// FaultNone to disarm. Not safe to call while simulations are running.
func InjectFault(f Fault) { injected = f }

// InjectedFault returns the currently armed fault.
func InjectedFault() Fault { return injected }

// faultedSetMask applies the armed fault to a cache's set-index mask.
func faultedSetMask(mask uint64) uint64 {
	if injected == FaultIndexBits && mask >= 3 {
		return mask >> 1
	}
	return mask
}
