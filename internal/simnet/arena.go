package simnet

import (
	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/sim"
)

// Arena pools the expensive per-run state of simulated clusters — the
// engine's event storage, the safety checker and the per-process Node
// objects with their timer tables, cached timer closures, stable stores and
// last processes (consensus.Reuser) — so a grid sweep can run thousands of
// cells without rebuilding any of it. Population-scale
// cells make this matter: constructing 5000 nodes per cell costs more than
// simulating some cells.
//
// One Arena serves one goroutine at a time (the scenario runner gives each
// worker its own); runs on an arena are byte-identical to runs on fresh
// storage, which TestArenaRunsMatchFreshRuns pins.
type Arena struct {
	eng     *sim.Engine
	checker consensus.SafetyChecker
	nodes   []*Node
}

// NewArena returns an empty arena; storage grows on first use and is
// retained across runs.
func NewArena() *Arena { return &Arena{} }

// Engine returns the arena's engine reset for a new run under seed,
// constructing it on first use. The reset engine's schedules are
// byte-identical to a fresh NewEngine(seed)'s.
func (a *Arena) Engine(seed int64) *sim.Engine {
	if a.eng == nil {
		a.eng = sim.NewEngine(seed)
	} else {
		a.eng.Reset(seed)
	}
	return a.eng
}

// node hands out process id's pooled node, reset and re-bound to the new
// run, growing the pool the first time each size is reached. Networks ask
// for ids in order 0..N−1, so the pool is a plain slice.
func (a *Arena) node(nw *Network, id consensus.ProcessID, factory consensus.Factory, proposal consensus.Value, drift clock.Drift) *Node {
	if int(id) < len(a.nodes) {
		n := a.nodes[id]
		n.reset(nw, factory, proposal, drift)
		return n
	}
	n := newNode(nw, id, factory, proposal, drift)
	a.nodes = append(a.nodes, n)
	return n
}
