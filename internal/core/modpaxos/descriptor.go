package modpaxos

import (
	"time"

	"repro/internal/adversary"
	"repro/internal/core/consensus"
	"repro/internal/protocol"
	"repro/internal/simnet"
)

// config maps the registry's common parameter set onto this package's
// Config.
func config(p protocol.Params) Config {
	return Config{Delta: p.Delta, Sigma: p.Sigma, Eps: p.Eps, Rho: p.Rho, Prepared: p.Prepared}
}

// messages lists the protocol's message types, for both descriptors.
func messages() []consensus.Message {
	return []consensus.Message{P1a{}, P1b{}, P2a{}, P2b{}, Decided{}}
}

// Descriptor returns the protocol-registry entry for modified Paxos — the
// paper's contribution. It is registered by the protocol/all package.
func Descriptor() protocol.Descriptor {
	return protocol.Descriptor{
		Name: "modpaxos",
		Doc:  "modified Paxos (§4, claim C3): decides by TS + ε + 3τ + 5δ under any pre-TS adversary",
		New: func(p protocol.Params) (consensus.Factory, error) {
			return New(config(p))
		},
		DecisionBound: func(p protocol.Params) (time.Duration, error) {
			return DecisionBound(config(p))
		},
		// The strongest legal injection: proof step 1 caps every session at
		// s0+1, which is 2 under the harness's DropAll pre-TS policy (all
		// live processes idle in session 1 at TS).
		Obsolete: func(_ protocol.Params, s protocol.ObsoleteSpec) protocol.Installer {
			return func(nw *simnet.Network) {
				adversary.Apply(nw, SessionCappedAttack{
					K: s.K, From: s.From, Victims: s.Victims, Cap: 2,
				}.Build(s.N, s.Delta, s.TS))
			}
		},
		Messages:           messages(),
		SupportsPrepared:   true,
		ClaimsFastRecovery: true,
	}
}

// AblationDescriptor returns the entry-rule ablation variant: modified
// Paxos with condition (ii) of Start Phase 1 (the majority-session-entry
// rule) disabled. Without the rule a failed process could legally have
// produced arbitrarily high sessions before TS, so its Obsolete hook mounts
// the adaptive high-session release — the §2 problem returning, which is
// exactly why the rule exists (Table 10). The variant is Hidden: it never
// joins default protocol comparisons, but resolves by name everywhere.
//
// It deliberately declares no DecisionBound: the paper's ε+3τ+5δ claim
// does not hold for the ablated algorithm.
func AblationDescriptor() protocol.Descriptor {
	return protocol.Descriptor{
		Name:   "modpaxos-norule",
		Doc:    "ABLATION: modified Paxos without the majority-entry rule — obsolete high sessions delay it without bound",
		Hidden: true,
		New: func(p protocol.Params) (consensus.Factory, error) {
			cfg := config(p)
			cfg.DisableEntryRule = true
			return New(cfg)
		},
		Obsolete: func(_ protocol.Params, s protocol.ObsoleteSpec) protocol.Installer {
			// The ablated attack targets every up process: there is no
			// leader to spare in modified Paxos, and the point is the
			// strongest schedule the missing rule would have forbidden.
			var victims []consensus.ProcessID
			for i := 0; i < s.N; i++ {
				if id := consensus.ProcessID(i); id != s.From {
					victims = append(victims, id)
				}
			}
			return func(nw *simnet.Network) {
				ReactiveSessionAttack{K: s.K, From: s.From, Victims: victims}.Install(nw)
			}
		},
		Messages: messages(),
	}
}
