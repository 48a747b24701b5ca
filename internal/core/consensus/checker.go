package consensus

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Decision records one process's irrevocable decision.
type Decision struct {
	Proc  ProcessID
	Value Value
	// At is the global time of the decision (supplied by the substrate,
	// not the process's drifting clock).
	At time.Duration
}

// SafetyChecker validates the three standard consensus safety properties as
// decisions arrive:
//
//   - Agreement: no two processes decide different values.
//   - Validity: every decided value was proposed by some process.
//   - Integrity: a process decides at most once (re-deciding the same value,
//     e.g. after a restart, is permitted and idempotent).
//
// The checker is safe for concurrent use so the live runtime can share it
// across node goroutines.
type SafetyChecker struct {
	mu        sync.Mutex
	proposals Tally[Value]
	decisions Tally[Decision]
	order     []Decision // decisions in arrival order
	violation error
	// decided mirrors len(decisions) so AllDecided can answer "not yet"
	// without the mutex: run loops ask after every event.
	decided atomic.Int64
}

// NewSafetyChecker returns an empty checker for an n-process cluster. Its
// tables are sized for n processes.
func NewSafetyChecker(n int) *SafetyChecker {
	c := &SafetyChecker{}
	c.Reset(n)
	return c
}

// Reset empties the checker for a new n-process run, keeping its storage.
func (c *SafetyChecker) Reset(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.proposals.Reset(n)
	c.decisions.Reset(n)
	c.order, c.violation = slices.Grow(c.order[:0], n), nil
	c.decided.Store(0)
}

// RecordProposal registers the value proposed by p (used for validity).
func (c *SafetyChecker) RecordProposal(p ProcessID, v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.proposals.Set(p, v)
}

// RecordDecision registers a decision, returning an error (and remembering
// it) if the decision violates agreement, validity, or integrity.
func (c *SafetyChecker) RecordDecision(d Decision) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	if prev, ok := c.decisions.Get(d.Proc); ok {
		if prev.Value != d.Value {
			return c.violate("integrity: process %d decided %q at %v then %q at %v",
				d.Proc, prev.Value, prev.At, d.Value, d.At)
		}
		return nil // idempotent re-decision (e.g. after restart)
	}
	// Scan the arrival-ordered slice, not the map, so the witness named in
	// a violation is deterministic (the earliest conflicting decision).
	for _, other := range c.order {
		if other.Value != d.Value {
			return c.violate("agreement: process %d decided %q but process %d decided %q",
				other.Proc, other.Value, d.Proc, d.Value)
		}
	}
	valid := false
	for _, v := range c.proposals.All() {
		if v == d.Value {
			valid = true
			break
		}
	}
	if !valid && c.proposals.Len() > 0 {
		return c.violate("validity: process %d decided %q, which no process proposed", d.Proc, d.Value)
	}
	c.decisions.Set(d.Proc, d)
	c.order = append(c.order, d)
	c.decided.Add(1)
	return nil
}

func (c *SafetyChecker) violate(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if c.violation == nil {
		c.violation = err
	}
	return err
}

// Violation returns the first recorded safety violation, or nil.
func (c *SafetyChecker) Violation() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violation
}

// Decisions returns a copy of all distinct decisions in arrival order.
func (c *SafetyChecker) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.order))
	copy(out, c.order)
	return out
}

// DecisionOf returns p's decision, if any.
func (c *SafetyChecker) DecisionOf(p ProcessID) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions.Get(p)
}

// DecidedCount returns the number of processes that have decided.
func (c *SafetyChecker) DecidedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions.Len()
}

// AllDecided reports whether every process in ids (distinct IDs) has decided.
func (c *SafetyChecker) AllDecided(ids []ProcessID) bool {
	if c.decided.Load() < int64(len(ids)) {
		return false // fewer decisions than processes asked about
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if _, ok := c.decisions.Get(id); !ok {
			return false
		}
	}
	return true
}

// FirstDecision returns the earliest decision by global time, if any.
func (c *SafetyChecker) FirstDecision() (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return Decision{}, false
	}
	best := c.order[0]
	for _, d := range c.order[1:] {
		if d.At < best.At {
			best = d
		}
	}
	return best, true
}

// LastDecisionAmong returns the latest decision time among the given
// processes, and whether all of them have decided.
func (c *SafetyChecker) LastDecisionAmong(ids []ProcessID) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var last time.Duration
	for _, id := range ids {
		d, ok := c.decisions.Get(id)
		if !ok {
			return 0, false
		}
		if d.At > last {
			last = d.At
		}
	}
	return last, true
}
