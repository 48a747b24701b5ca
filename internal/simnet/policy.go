package simnet

import (
	"math/rand"
	"time"

	"repro/internal/core/consensus"
)

// Transmission describes one message in flight before stabilization, given
// to the Policy to decide its fate.
type Transmission struct {
	From, To consensus.ProcessID
	Msg      consensus.Message
	// SentAt is the global send time (< TS by construction).
	SentAt time.Duration
	// TS and Delta restate the network parameters for convenience.
	TS    time.Duration
	Delta time.Duration
	// Duplicates is an empty buffer the caller owns and reuses at its next
	// Fate call (or nil): a policy appends copies to it and returns them as
	// Fate.Duplicates, so a warm network allocates nothing per copy.
	Duplicates []time.Duration
}

// Fate is a policy's ruling on a pre-stability message.
type Fate struct {
	// Drop loses the message entirely.
	Drop bool
	// Delay is the transit time when not dropped. It may exceed TS−SentAt:
	// that is how obsolete messages surface after stabilization.
	Delay time.Duration
	// Duplicates lists the transit times of extra copies the network
	// delivers beyond the original — Byzantine-flavored re-delivery. Each
	// entry is an independent delay from the send instant and, like Delay,
	// may land after TS. Correct protocols must be idempotent under it.
	Duplicates []time.Duration
}

// Policy decides the fate of every message sent before TS. Implementations
// must draw randomness only from the supplied source to keep runs
// deterministic.
type Policy interface {
	Fate(tx Transmission, rng *rand.Rand) Fate
}

// Synchronous makes the pre-TS network behave exactly like the post-TS one:
// delivery within δ. Useful as a best-case baseline and for TS=0 runs.
type Synchronous struct{}

// Fate implements Policy.
func (Synchronous) Fate(tx Transmission, rng *rand.Rand) Fate {
	return Fate{Delay: tx.Delta / 10 * time.Duration(1+rng.Int63n(9))}
}

// DropAll loses every pre-TS message — total partition until stabilization.
// This is the scenario behind the paper's observation that consensus must
// take Ω(δ) after TS: no pre-TS communication survives.
type DropAll struct{}

// Fate implements Policy.
func (DropAll) Fate(Transmission, *rand.Rand) Fate { return Fate{Drop: true} }

// Chaos drops each pre-TS message with probability DropProb and delays
// survivors uniformly in [0, MaxDelay]. With MaxDelay > TS−SentAt, survivors
// can arrive after stabilization as obsolete messages.
type Chaos struct {
	// DropProb is the per-message loss probability in [0,1].
	DropProb float64
	// MaxDelay is the maximum transit time of surviving messages. Zero
	// means 2·TS (so roughly half of late messages land after TS).
	MaxDelay time.Duration
}

// Fate implements Policy.
func (c Chaos) Fate(tx Transmission, rng *rand.Rand) Fate {
	if rng.Float64() < c.DropProb {
		return Fate{Drop: true}
	}
	maxDelay := c.MaxDelay
	if maxDelay == 0 {
		maxDelay = 2 * tx.TS
	}
	if maxDelay <= 0 {
		return Fate{Delay: 0}
	}
	return Fate{Delay: time.Duration(rng.Int63n(int64(maxDelay) + 1))}
}

// Partition splits processes into groups; messages crossing group boundaries
// before TS are dropped, messages within a group are delivered within δ.
type Partition struct {
	// Group maps each process to a partition index.
	Group map[consensus.ProcessID]int
}

// Fate implements Policy.
func (p Partition) Fate(tx Transmission, rng *rand.Rand) Fate {
	if p.Group[tx.From] != p.Group[tx.To] {
		return Fate{Drop: true}
	}
	return Synchronous{}.Fate(tx, rng)
}

// SplitBrain returns the group map of a two-way split: processes 0..⌈n/2⌉−1
// in group 0 (the majority side for odd n), the rest in group 1.
func SplitBrain(n int) map[consensus.ProcessID]int {
	groups := make(map[consensus.ProcessID]int, n)
	half := (n + 1) / 2
	for i := 0; i < n; i++ {
		g := 0
		if i >= half {
			g = 1
		}
		groups[consensus.ProcessID(i)] = g
	}
	return groups
}

// Chain composes policies. Each link rules on the message in order; the
// first link that drops it wins and later links are not consulted (so they
// draw no randomness for that message — composition order is observable).
// When no link drops, the delay is the maximum over all links: each link
// expresses a floor on how badly the network treats the message, and
// composing adversities can only make delivery worse, never better.
type Chain []Policy

// Fate implements Policy.
func (c Chain) Fate(tx Transmission, rng *rand.Rand) Fate {
	out := Fate{Duplicates: tx.Duplicates}
	for _, p := range c {
		link := tx // appends to the buffer's free tail
		link.Duplicates = out.Duplicates[len(out.Duplicates):]
		f := p.Fate(link, rng)
		if f.Drop {
			return Fate{Drop: true}
		}
		if f.Delay > out.Delay {
			out.Delay = f.Delay
		}
		// Re-deliveries merge as a union: every link's copies arrive.
		out.Duplicates = append(out.Duplicates, f.Duplicates...)
	}
	return out
}

// PartitionUntilTS is a healing partition: messages crossing group
// boundaries are dropped until HealAt, then flow normally (within δ) for the
// remainder of the pre-TS period. With HealAt = 0 the partition heals
// exactly at TS — the network is stable from the very first post-TS instant,
// the paper's sharpest "total communication failure, then stability" regime.
type PartitionUntilTS struct {
	// Group maps each process to a partition index.
	Group map[consensus.ProcessID]int
	// HealAt is the global time the partition disappears; 0 means TS.
	HealAt time.Duration
}

// Fate implements Policy.
func (p PartitionUntilTS) Fate(tx Transmission, rng *rand.Rand) Fate {
	healAt := p.HealAt
	if healAt == 0 {
		healAt = tx.TS
	}
	if tx.SentAt < healAt && p.Group[tx.From] != p.Group[tx.To] {
		return Fate{Drop: true}
	}
	return Synchronous{}.Fate(tx, rng)
}

// LossBurst drops messages with probability DropProb during the window
// [From, To) and defers to Base outside it. Bursts model transient storms
// (a flapping switch, a GC pause on the path) inside an otherwise healthy
// pre-TS network.
type LossBurst struct {
	// From and To bound the burst window in global time. A zero To means
	// the burst lasts until TS.
	From, To time.Duration
	// DropProb is the loss probability inside the window; 0 means 1
	// (a total black-out, the common case for a named burst).
	DropProb float64
	// Targets, when non-nil, restricts the burst to messages to or from a
	// target (a flaky minority); nil means the burst hits everyone.
	Targets map[consensus.ProcessID]bool
	// Base rules outside the window (default Synchronous).
	Base Policy
}

// Fate implements Policy.
func (l LossBurst) Fate(tx Transmission, rng *rand.Rand) Fate {
	to := l.To
	if to == 0 {
		to = tx.TS
	}
	hit := l.Targets == nil || l.Targets[tx.From] || l.Targets[tx.To]
	if hit && tx.SentAt >= l.From && tx.SentAt < to {
		p := l.DropProb
		if p == 0 {
			p = 1
		}
		if rng.Float64() < p {
			return Fate{Drop: true}
		}
	}
	base := l.Base
	if base == nil {
		base = Synchronous{}
	}
	return base.Fate(tx, rng)
}

// GroupChurn is a randomly churning partition: pre-TS time is cut into
// Period-long windows and every process is hashed into one of Groups groups
// per window, so the partition layout reshuffles as the clock advances —
// quorums form, dissolve, and re-form along different cut lines. Unlike
// Partition (one static cut) this exercises protocols against membership
// flapping: state accumulated with one quorum must survive the next cut.
// Group membership is a pure hash of (Seed, window, process), never the
// rng, so every message sent in the same window sees the same cut.
type GroupChurn struct {
	// Groups is the number of partitions per window (default 2).
	Groups int
	// Period is the window length (default 4δ).
	Period time.Duration
	// Seed decorrelates the membership hash from the run seed; runs with
	// different seeds churn along different cut lines.
	Seed int64
	// Base rules intra-group messages (default Synchronous).
	Base Policy
}

// group hashes one process into its window's partition (splitmix64 finisher
// over the seed/window/process mix).
func (g GroupChurn) group(window int64, p consensus.ProcessID, groups int) int {
	x := uint64(g.Seed)*0x9e3779b97f4a7c15 ^ uint64(window)*0xbf58476d1ce4e5b9 ^ uint64(p)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(groups))
}

// Fate implements Policy.
func (g GroupChurn) Fate(tx Transmission, rng *rand.Rand) Fate {
	groups := g.Groups
	if groups <= 0 {
		groups = 2
	}
	period := g.Period
	if period <= 0 {
		period = 4 * tx.Delta
	}
	w := int64(tx.SentAt / period)
	if g.group(w, tx.From, groups) != g.group(w, tx.To, groups) {
		return Fate{Drop: true}
	}
	base := g.Base
	if base == nil {
		base = Synchronous{}
	}
	return base.Fate(tx, rng)
}

// TargetedDelay singles out a set of processes: every message to or from a
// target takes exactly Delay to arrive (which may exceed TS−SentAt, turning
// the target's traffic into obsolete messages). Non-target traffic defers to
// Base. This models a slow coordinator or a degraded link without any loss.
type TargetedDelay struct {
	// Targets are the slowed processes.
	Targets map[consensus.ProcessID]bool
	// Delay is the transit time of targeted messages (default 2δ).
	Delay time.Duration
	// Base rules non-targeted messages (default Synchronous).
	Base Policy
}

// Fate implements Policy.
func (t TargetedDelay) Fate(tx Transmission, rng *rand.Rand) Fate {
	if t.Targets[tx.From] || t.Targets[tx.To] {
		d := t.Delay
		if d == 0 {
			d = 2 * tx.Delta
		}
		return Fate{Delay: d}
	}
	base := t.Base
	if base == nil {
		base = Synchronous{}
	}
	return base.Fate(tx, rng)
}

// Duplicate re-delivers surviving pre-TS messages probabilistically: each
// message that Base lets through spawns up to MaxExtra additional copies,
// each with probability Prob, arriving after the original by up to Spread.
// The network never promises exactly-once delivery before stabilization;
// this policy makes that Byzantine-flavored slack concrete, so protocols
// prove their handlers idempotent under it.
type Duplicate struct {
	// Prob is the per-copy duplication probability (default 0.5).
	Prob float64
	// MaxExtra caps the extra copies per message (default 1).
	MaxExtra int
	// Spread bounds how long after the original each copy arrives
	// (default 2δ) — copies of late pre-TS messages can land post-TS,
	// turning duplication into obsolete-message pressure.
	Spread time.Duration
	// Base rules the original delivery (default Synchronous).
	Base Policy
}

// Fate implements Policy.
func (d Duplicate) Fate(tx Transmission, rng *rand.Rand) Fate {
	base := d.Base
	if base == nil {
		base = Synchronous{}
	}
	f := base.Fate(tx, rng)
	if f.Drop {
		return f
	}
	prob := d.Prob
	if prob == 0 {
		prob = 0.5
	}
	maxExtra := d.MaxExtra
	if maxExtra == 0 {
		maxExtra = 1
	}
	spread := d.Spread
	if spread == 0 {
		spread = 2 * tx.Delta
	}
	if spread <= 0 {
		spread = 1
	}
	f.Duplicates = append(tx.Duplicates, f.Duplicates...) // into the caller's buffer
	for i := 0; i < maxExtra; i++ {
		if rng.Float64() < prob {
			f.Duplicates = append(f.Duplicates, f.Delay+1+time.Duration(rng.Int63n(int64(spread))))
		}
	}
	return f
}

// Reorder is a delay-jitter storm: every surviving pre-TS message gets an
// independent extra delay uniform in [0, Jitter], so FIFO ordering between
// any pair of processes is destroyed (a message sent later routinely
// arrives earlier). Protocols relying on channel ordering rather than
// message contents fail here.
type Reorder struct {
	// Jitter bounds the extra delay (default 4δ — enough to invert the
	// order of messages sent up to four δ apart).
	Jitter time.Duration
	// Base rules loss and the baseline delay (default Synchronous).
	Base Policy
}

// Fate implements Policy.
func (r Reorder) Fate(tx Transmission, rng *rand.Rand) Fate {
	base := r.Base
	if base == nil {
		base = Synchronous{}
	}
	f := base.Fate(tx, rng)
	if f.Drop {
		return f
	}
	jitter := r.Jitter
	if jitter == 0 {
		jitter = 4 * tx.Delta
	}
	f.Delay += time.Duration(rng.Int63n(int64(jitter) + 1))
	return f
}
