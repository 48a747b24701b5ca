package scenario

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
)

// RunResult is one executed (protocol, seed) cell handed to checks.
type RunResult struct {
	Protocol harness.Protocol
	Seed     int64
	Cfg      harness.Config
	Res      harness.Result
}

// LatencyAfterTS is the run's decision latency after stabilization, clamped
// at zero for runs that decided before TS (the paper's "decide by TS+bound"
// is then trivially met). It is exactly harness.Result.LatencyAfterTS — the
// two callers used to disagree on the pre-TS-decision case.
func (r RunResult) LatencyAfterTS() time.Duration {
	return r.Res.LatencyAfterTS
}

// Check is one invariant evaluated against a run. A check that does not
// apply to the run's protocol returns nil.
type Check interface {
	// Name identifies the check in reports.
	Name() string
	// Check returns a non-nil error describing the violation, if any.
	Check(r RunResult) error
}

// DefaultChecks returns the invariants every scenario gets unless it
// overrides them: termination, agreement, validity.
func DefaultChecks() []Check {
	return []Check{Termination{}, Agreement{}, Validity{}}
}

// Termination requires every process that was up at the end to have decided
// within the horizon.
type Termination struct{}

// Name implements Check.
func (Termination) Name() string { return "termination" }

// Check implements Check.
func (Termination) Check(r RunResult) error {
	if r.Res.Violation != nil {
		return nil // counted by Agreement; don't double-report
	}
	if !r.Res.Decided {
		return fmt.Errorf("not all up processes decided within the horizon")
	}
	return nil
}

// Agreement requires that no safety violation (two processes deciding
// differently, or one process re-deciding a different value) was detected.
type Agreement struct{}

// Name implements Check.
func (Agreement) Name() string { return "agreement" }

// Check implements Check.
func (Agreement) Check(r RunResult) error { return r.Res.Violation }

// Validity requires the decided value to be one of the proposals.
type Validity struct{}

// Name implements Check.
func (Validity) Name() string { return "validity" }

// Check implements Check.
func (Validity) Check(r RunResult) error {
	if r.Res.Value == "" {
		return nil // nothing decided; Termination reports that
	}
	for _, v := range harness.DefaultProposals(r.Cfg.N) {
		if r.Res.Value == v {
			return nil
		}
	}
	return fmt.Errorf("decided value %q was never proposed", r.Res.Value)
}

// decisionBound resolves the run's protocol descriptor and returns its
// declared post-TS decision bound, or ok=false for protocols that claim
// none (the bound checks then do not apply).
func decisionBound(r RunResult) (time.Duration, bool, error) {
	d, err := protocol.Get(string(r.Protocol))
	if err != nil || d.DecisionBound == nil {
		return 0, false, nil
	}
	bound, err := d.DecisionBound(r.Cfg.Params())
	if err != nil {
		return 0, false, err
	}
	return bound, true, nil
}

// LatencyBound checks the paper's headline claim: a protocol that declares
// a decision bound in its registry descriptor (modified Paxos's
// TS + ε + 3τ + 5δ) decides within it. Runs of protocols without a declared
// bound pass trivially; scenarios whose fault schedule violates the bound's
// premises (failures after TS) must not include the check.
type LatencyBound struct{}

// Name implements Check.
func (LatencyBound) Name() string { return "latency-bound" }

// Check implements Check.
func (LatencyBound) Check(r RunResult) error {
	if !r.Res.Decided {
		return nil
	}
	bound, ok, err := decisionBound(r)
	if err != nil || !ok {
		return err
	}
	if lat := r.LatencyAfterTS(); lat > bound {
		return fmt.Errorf("latency after TS %v exceeds the ε+3τ+5δ bound %v", lat, bound)
	}
	return nil
}

// RecoveryBound checks the §4 restart claim: every process that restarts
// after TS decides within MaxDeltas·δ of its restart. It applies exactly to
// the protocols whose descriptor sets ClaimsFastRecovery — a separate
// capability from DecisionBound, because bounding decision latency and
// bounding restart recovery are independent claims.
type RecoveryBound struct {
	// MaxDeltas is the allowed recovery time in units of δ.
	MaxDeltas float64
}

// Name implements Check.
func (RecoveryBound) Name() string { return "recovery-bound" }

// Check implements Check.
func (c RecoveryBound) Check(r RunResult) error {
	if d, err := protocol.Get(string(r.Protocol)); err != nil || !d.ClaimsFastRecovery {
		return nil
	}
	limit := time.Duration(c.MaxDeltas * float64(r.Cfg.Delta))
	// Walk processes in ID order so the violation names the same process on
	// every run, not whichever key map iteration surfaces first.
	procs := make([]consensus.ProcessID, 0, len(r.Res.RestartRecovery))
	for proc := range r.Res.RestartRecovery {
		procs = append(procs, proc)
	}
	slices.Sort(procs)
	for _, proc := range procs {
		if rec := r.Res.RestartRecovery[proc]; rec > limit {
			return fmt.Errorf("process %d took %v to recover after restart, limit %v", proc, rec, limit)
		}
	}
	return nil
}

// messageBudget caps the total number of messages a run may send — a
// regression tripwire for message complexity, not a tight bound.
type messageBudget struct {
	// MaxTotal is the cap on messages handed to the network.
	MaxTotal int
}

// Name implements Check.
func (messageBudget) Name() string { return "message-budget" }

// Check implements Check.
func (c messageBudget) Check(r RunResult) error {
	if r.Res.Messages > c.MaxTotal {
		return fmt.Errorf("%d messages sent, budget %d", r.Res.Messages, c.MaxTotal)
	}
	return nil
}

// minorityUp names the processes of the minority side of a SplitBrain
// grouping — the convenience every split scenario needs.
func minorityUp(n int) []consensus.ProcessID {
	var out []consensus.ProcessID
	for i := (n + 1) / 2; i < n; i++ {
		out = append(out, consensus.ProcessID(i))
	}
	return out
}
