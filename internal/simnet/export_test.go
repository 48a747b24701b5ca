package simnet

import "repro/internal/core/consensus"

// SetSettledHook installs fn to see every answer Network.Settled gives and
// returns a function that removes it. The hook is process-wide: tests using
// it must not run in parallel with other simulations.
func SetSettledHook(fn func(nw *Network, settled bool)) (restore func()) {
	testHookSettled = fn
	return func() { testHookSettled = nil }
}

// SettledByScan is the stop condition as the run loops computed it before
// Network kept undecidedUp and violated: ask the checker, then look at every
// node. Kept as the reference Settled is held against.
func (nw *Network) SettledByScan() bool {
	if nw.checker.Violation() != nil {
		return true
	}
	for _, n := range nw.nodes {
		if n.up && !n.decided {
			return false
		}
	}
	return true
}

// Spare returns the discarded process the node keeps for the next process
// it starts to reuse (nil when it keeps none).
func (n *Node) Spare() consensus.Process { return n.spare }
