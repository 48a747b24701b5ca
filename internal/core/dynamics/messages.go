package dynamics

import "repro/internal/core/consensus"

// Query asks a uniformly sampled peer for its current state. Round lets the
// sampler discard replies that straggle in after the round closed.
type Query struct {
	Round int64
}

// Reply returns the responder's state for one sampling round. Undecided
// marks USD's third state, in which Opinion is stale.
type Reply struct {
	Round     int64
	Opinion   consensus.Value
	Undecided bool
}

// Decided announces a threshold decision so the rest of the population can
// stop sampling. Receivers adopt without re-broadcasting.
type Decided struct {
	Val consensus.Value
}

// Type implements consensus.Message; one label set for every rule.
func (Query) Type() string   { return "dyn-query" }
func (Reply) Type() string   { return "dyn-reply" }
func (Decided) Type() string { return "dyn-decided" }
