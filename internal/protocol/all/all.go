// Package all registers every built-in protocol descriptor with the
// protocol registry, in the canonical comparison order the experiment
// tables use. It is the one package outside the cores that may import the
// protocol implementations; everything else resolves protocols by name.
//
// The harness imports this package, so any program that can run an
// experiment has the paper's four protocols (plus the shipped ablation
// variant) available. A new protocol is added by writing its descriptor
// next to its implementation and registering it here — or, for variants
// that should not ship, by calling protocol.Register from the code that
// needs them (tests do exactly that).
package all

import (
	"repro/internal/core/bconsensus"
	"repro/internal/core/dynamics"
	"repro/internal/core/modpaxos"
	"repro/internal/core/paxos"
	"repro/internal/core/roundbased"
	"repro/internal/protocol"
)

func init() {
	// Visible protocols, in the canonical comparison order.
	protocol.MustRegister(paxos.Descriptor())
	protocol.MustRegister(modpaxos.Descriptor())
	protocol.MustRegister(roundbased.Descriptor())
	protocol.MustRegister(bconsensus.Descriptor())
	// Hidden ablation variants: resolvable by name (Table 10, CLIs), never
	// part of default comparisons.
	protocol.MustRegister(modpaxos.AblationDescriptor())
	// Hidden population-dynamics family: probabilistic large-N gossip
	// protocols for the population-scale scenarios and sweeps. Minority is
	// the deliberate poly(n) contrast to the O(log n) trio.
	for _, d := range dynamics.Descriptors() {
		protocol.MustRegister(d)
	}
}
