// Package protocol is the registry that makes consensus protocols pluggable
// across every layer of this repository. A protocol is published as a
// Descriptor — its name, a paper-claim tag, a constructor from the common
// parameter set, and optional per-protocol hooks (decision-time bound,
// obsolete-message adversary) plus capability flags — and every consumer
// (the harness, the scenario engine, the experiment generators, the CLIs,
// the live runtime's wire registration) resolves protocols by name through
// the registry instead of switching over hard-coded variants.
//
// Adding a protocol (or an ablation variant of an existing one) is therefore
// a single registration:
//
//	protocol.MustRegister(protocol.Descriptor{
//		Name: "myvariant",
//		Doc:  "modified Paxos with the entry rule disabled",
//		New: func(p protocol.Params) (consensus.Factory, error) {
//			return modpaxos.New(modpaxos.Config{Delta: p.Delta, DisableEntryRule: true})
//		},
//	})
//
// and the new name immediately works everywhere a protocol name is accepted:
// harness.Config.Protocol, scenario.Spec.Protocols, `consensus-sim
// -protocol`, and the `scenario list` enumeration.
// No harness, scenario, or CLI source changes are needed — that is the
// extension point every future protocol/workload PR builds on.
//
// The built-in descriptors live next to the protocols they describe (each
// core package ships one) and are registered by the protocol/all package;
// the harness imports protocol/all, so the four paper protocols are always
// available wherever experiments run.
package protocol

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
)

// Params is the protocol-independent parameter set a Descriptor's
// constructor is given — the union of the model parameters the paper's four
// algorithms consume. Each descriptor maps the fields it understands onto
// its package's own Config and ignores the rest (δ is universal; σ and ε
// are modified-Paxos/B-Consensus knobs; ρ budgets local timers).
type Params struct {
	// Delta is δ, the known post-stabilization delivery bound.
	Delta time.Duration
	// Sigma is σ, the session-timeout upper edge (modpaxos; 0 = default).
	Sigma time.Duration
	// Eps is ε, the heartbeat/retransmission interval (0 = default).
	Eps time.Duration
	// Rho is ρ, the clock-rate error bound.
	Rho float64
	// Prepared requests the stable-state fast path (phase 1 pre-executed).
	// Build rejects it for descriptors without SupportsPrepared.
	Prepared bool
}

// ObsoleteSpec describes one obsolete-message attack (§2's adversary) the
// harness wants mounted: K obsolete messages carried by failed process From,
// released against Victims after TS. The descriptor's Obsolete hook turns it
// into the strongest schedule the protocol's rules allow — unbounded ballots
// for traditional Paxos, the session-capped legal equivalent for the
// modified algorithm.
type ObsoleteSpec struct {
	// N is the cluster size.
	N int
	// Delta and TS are the run's timing parameters.
	Delta time.Duration
	TS    time.Duration
	// K is the attack strength (number of obsolete messages).
	K int
	// From is the failed process the messages claim to come from; it stays
	// down for the whole run.
	From consensus.ProcessID
	// Victims receive each release.
	Victims []consensus.ProcessID
}

// Installer wires an adversary onto a simulated network before start.
type Installer func(*simnet.Network)

// Descriptor publishes one consensus protocol to the registry.
type Descriptor struct {
	// Name is the registry key — the string harness.Config.Protocol,
	// scenario specs, and the CLIs' -protocol flags resolve.
	Name string
	// Doc is a one-line description tying the protocol to the paper claim
	// it reproduces; CLIs show it when enumerating protocols.
	Doc string
	// New builds the protocol's process factory from the common parameters.
	New func(Params) (consensus.Factory, error)
	// DecisionBound, if non-nil, returns the protocol's proven post-TS
	// decision-time bound for the given parameters (modified Paxos's
	// ε + 3τ + 5δ). Checks and reports that compare measured latency
	// against "the paper bound" apply exactly to protocols declaring one.
	DecisionBound func(Params) (time.Duration, error)
	// Obsolete, if non-nil, mounts the protocol's variant of the
	// obsolete-message adversary. Nil means the attack is undefined for
	// this protocol and the harness rejects it.
	Obsolete func(Params, ObsoleteSpec) Installer
	// Messages lists one zero value of every message type the protocol
	// sends. The harness pre-interns their trace counters from it, and the
	// codec tests read it: each type of a protocol the live runtime accepts
	// needs a codec in the consensus wire registry (consensus.RegisterCodec)
	// to cross the TCP transport, which encodes a message after Send
	// returns — values of these types must be immutable.
	Messages []consensus.Message
	// SupportsPrepared marks protocols implementing the stable-state fast
	// path; Build rejects Params.Prepared for all others.
	SupportsPrepared bool
	// ClaimsFastRecovery marks protocols claiming §4's restart bound — a
	// process restarting after TS decides within O(δ) of its restart. The
	// scenario RecoveryBound check applies exactly to these. It is a
	// separate claim from DecisionBound: a protocol may bound decision
	// latency without bounding restart recovery, and vice versa.
	ClaimsFastRecovery bool
	// NeedsLeaderOracle marks protocols that require an external leader
	// oracle (traditional Paxos). The harness installs the simulated
	// oracle for them; the live runtime, which has none, refuses them.
	NeedsLeaderOracle bool
	// Hidden excludes the protocol from default enumerations
	// (harness.Protocols, scenario protocol defaults) while keeping it
	// resolvable by name — for ablation and diagnostic variants that
	// should not silently join every comparison.
	Hidden bool
}

// MessageTypes returns the wire-type names of the descriptor's Messages —
// the strings the trace collector interns into dense counter IDs at run
// setup, so the simulator's per-message accounting never grows the table
// mid-run. Protocols whose descriptors list their messages get fully
// pre-interned counters for free.
func (d Descriptor) MessageTypes() []string {
	out := make([]string, 0, len(d.Messages))
	for _, m := range d.Messages {
		out = append(out, m.Type())
	}
	return out
}

// Build constructs the factory after enforcing capability gates.
func (d Descriptor) Build(p Params) (consensus.Factory, error) {
	if p.Prepared && !d.SupportsPrepared {
		return nil, fmt.Errorf("protocol: %q does not support the Prepared fast path", d.Name)
	}
	return d.New(p)
}

// registry is the process-global descriptor table. Registration order is
// preserved: All returns descriptors in the order they were registered, so
// enumerations (CLI listings, default protocol sets) are deterministic.
var registry = struct {
	sync.RWMutex
	byName map[string]Descriptor
	order  []string
}{byName: make(map[string]Descriptor)}

// Register adds a descriptor to the registry. It rejects descriptors with
// an empty name or nil constructor and names that are already taken —
// duplicate registration is always a bug (two packages claiming one name),
// never a recoverable condition.
func Register(d Descriptor) error {
	if d.Name == "" {
		return fmt.Errorf("protocol: descriptor with empty name")
	}
	if d.New == nil {
		return fmt.Errorf("protocol: descriptor %q has no constructor", d.Name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[d.Name]; dup {
		return fmt.Errorf("protocol: %q already registered", d.Name)
	}
	registry.byName[d.Name] = d
	registry.order = append(registry.order, d.Name)
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(d Descriptor) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Get resolves a protocol name.
func Get(name string) (Descriptor, error) {
	registry.RLock()
	defer registry.RUnlock()
	d, ok := registry.byName[name]
	if !ok {
		return Descriptor{}, fmt.Errorf("protocol: unknown protocol %q (registered: %v)", name, registry.order)
	}
	return d, nil
}

// All returns every registered descriptor, hidden ones included, in
// registration order.
func All() []Descriptor {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Descriptor, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// Visible returns the non-hidden descriptors in registration order — the
// set default protocol enumerations use.
func Visible() []Descriptor {
	var out []Descriptor
	for _, d := range All() {
		if !d.Hidden {
			out = append(out, d)
		}
	}
	return out
}
