package dynamics

import (
	"repro/internal/core/consensus"
	"repro/internal/protocol"
)

// rule is one member of the family: what the core needs to know about it
// as data, and its update as a pure function from the process's own state,
// the round's samples in arrival order and the last differing opinion it
// has seen to the next state, which the core persists when it changed.
type rule struct {
	name, doc string
	// samples is k, the processes queried per round (≤ maxSamples).
	samples int
	// lockstep suppresses the per-round jitter (see the package comment).
	lockstep bool
	// streakLogs is c in the c·log₂(n)+4 decision streak.
	streakLogs int
	update     func(self opinion, samples []opinion, other consensus.Value) opinion
}

// rules is the family, in registry order: the O(log n) trio, then minority
// as the deliberate poly(n) contrast.
var rules = [...]rule{
	{
		name:    "usd",
		doc:     "undecided-state dynamics (arXiv:2103.10366) — population-scale opinion consensus in O(log n) rounds w.h.p.",
		samples: 1, streakLogs: 2, update: usd,
	},
	{
		name:    "3majority",
		doc:     "3-majority dynamics (arXiv:2503.02426) — sample three, adopt the majority; plurality consensus in O(log n) rounds w.h.p.",
		samples: 3, streakLogs: 1, update: threeMajority,
	},
	{
		name:    "2choices",
		doc:     "2-choices dynamics (arXiv:2503.02426) — sample two, adopt on agreement; O(log n) rounds w.h.p. given initial bias",
		samples: 2, streakLogs: 1, update: twoChoices,
	},
	{
		name:    "minority",
		doc:     "minority dynamics (arXiv:2310.13558) — sample three, adopt the minority; converges only in lockstep rounds, the family's contrast case",
		samples: 3, streakLogs: 1, lockstep: true, update: minority,
	},
}

// Descriptors publishes one Hidden registry entry per rule (the package
// comment says why Hidden, and why none has a DecisionBound).
func Descriptors() []protocol.Descriptor {
	out := make([]protocol.Descriptor, len(rules))
	for i, r := range rules {
		out[i] = protocol.Descriptor{
			Name:   r.name,
			Doc:    r.doc,
			Hidden: true,
			New: func(p protocol.Params) (consensus.Factory, error) {
				return New(r.name, Config{Delta: p.Delta, Rho: p.Rho})
			},
			Messages: []consensus.Message{Query{}, Reply{}, Decided{}},
		}
	}
	return out
}

// usd is the undecided-state rule: an opinionated process that samples a
// different opinion drops its own and becomes undecided; an undecided
// process adopts whatever opinion it samples. Ties between opinions are
// broken through the undecided population rather than by direct switches,
// which is what makes the dynamics fast.
func usd(self opinion, samples []opinion, _ consensus.Value) opinion {
	switch s := samples[0]; {
	case s.undecided:
		// Sampling an undecided process changes nothing.
	case self.undecided:
		return s
	case s.val != self.val:
		self.undecided = true
	}
	return self
}

// threeMajority adopts the opinion at least two of three samples share,
// and the first sample when all three differ. The three-sample tiebreak
// plays the role the undecided state plays in usd.
func threeMajority(_ opinion, samples []opinion, _ consensus.Value) opinion {
	a, b, c := samples[0].val, samples[1].val, samples[2].val
	if b == c && a != b {
		return opinion{val: b}
	}
	return opinion{val: a}
}

// twoChoices adopts the samples' opinion when both agree and keeps its own
// otherwise.
func twoChoices(self opinion, samples []opinion, _ consensus.Value) opinion {
	if samples[0].val == samples[1].val {
		return opinion{val: samples[0].val}
	}
	return self
}

// minority adopts the opinion in the minority among three samples: the
// lone dissenter of a two-versus-one split, and, when the sample is
// unanimous, the opinion absent from it — other, when one is known; a
// one-opinion population is already a fixed point. That case is what makes
// the rule contrarian rather than a tiebreak. The analyzed dynamics are
// binary; three distinct opinions fall back to the first sample.
func minority(_ opinion, samples []opinion, other consensus.Value) opinion {
	a, b, c := samples[0].val, samples[1].val, samples[2].val
	switch {
	case a == b && b == c:
		if other != "" && other != a {
			return opinion{val: other}
		}
		return opinion{val: a}
	case a == b:
		return opinion{val: c}
	case a == c:
		return opinion{val: b}
	}
	// b == c, or three distinct opinions.
	return opinion{val: a}
}
