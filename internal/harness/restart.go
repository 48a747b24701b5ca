package harness

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
)

// Rel is a virtual time expressed relative to the run's parameters, so a
// schedule stays meaningful when δ or TS are swept: the resolved time is
// TS·[FromTS] + Deltas·δ + Abs. Deltas may be negative with FromTS to name a
// pre-stabilization instant.
type Rel struct {
	// FromTS anchors the time at the stabilization time instead of 0.
	FromTS bool `json:"from_ts,omitempty"`
	// Deltas is the offset from the anchor, in units of δ.
	Deltas float64 `json:"deltas,omitempty"`
	// Abs is an additional fixed offset, for callers (the CLIs) whose
	// schedules are stated in absolute virtual time rather than in model
	// parameters.
	Abs time.Duration `json:"abs_ns,omitempty"`
}

// AfterTS returns the time TS + k·δ.
func AfterTS(k float64) Rel { return Rel{FromTS: true, Deltas: k} }

// AtDeltas returns the absolute time k·δ.
func AtDeltas(k float64) Rel { return Rel{Deltas: k} }

// AtAbs returns the fixed absolute time d, independent of δ and TS.
func AtAbs(d time.Duration) Rel { return Rel{Abs: d} }

// Resolve converts the relative time to an absolute virtual time.
func (r Rel) Resolve(delta, ts time.Duration) time.Duration {
	at := r.Abs + time.Duration(r.Deltas*float64(delta))
	if r.FromTS {
		at += ts
	}
	return at
}

// IsZero reports whether the Rel is the zero value (used for "never").
func (r Rel) IsZero() bool { return !r.FromTS && r.Deltas == 0 && r.Abs == 0 }

// Restart is one entry of a crash/restart schedule: Proc crashes at CrashAt
// and boots again from its stable storage at RestartAt. A zero RestartAt
// means the process never comes back (it must then leave a majority
// standing, or the run cannot terminate).
type Restart struct {
	Proc      consensus.ProcessID `json:"proc"`
	CrashAt   Rel                 `json:"crash_at"`
	RestartAt Rel                 `json:"restart_at"`
}

// RestartTarget is what a schedule is applied to: the simulated network,
// where at is virtual time, and the live cluster, where it is the wall-clock
// offset from Start.
type RestartTarget interface {
	CrashAt(id consensus.ProcessID, at time.Duration)
	RestartAt(id consensus.ProcessID, at time.Duration)
}

// ScheduleRestarts applies rs to a cluster of n processes under δ and TS.
// It checks every entry before it schedules any — the process exists, the
// crash is not before time 0, the restart is not before the crash — and
// then schedules each entry's crash and then its restart, in list order.
func ScheduleRestarts(t RestartTarget, rs []Restart, n int, delta, ts time.Duration) error {
	for _, r := range rs {
		crash, back := r.CrashAt.Resolve(delta, ts), r.RestartAt.Resolve(delta, ts)
		switch {
		case r.Proc < 0 || int(r.Proc) >= n:
			return fmt.Errorf("harness: crash/restart of process %d in a cluster of %d", r.Proc, n)
		case crash < 0:
			// A TS-relative time can resolve before zero under small δ/TS
			// overrides; the simulator panics on past scheduling.
			return fmt.Errorf("harness: crash of process %d resolves to %v (before time 0) with δ=%v TS=%v",
				r.Proc, crash, delta, ts)
		case !r.RestartAt.IsZero() && back < crash:
			return fmt.Errorf("harness: process %d restarts at %v before its crash at %v", r.Proc, back, crash)
		}
	}
	for _, r := range rs {
		t.CrashAt(r.Proc, r.CrashAt.Resolve(delta, ts))
		if !r.RestartAt.IsZero() {
			t.RestartAt(r.Proc, r.RestartAt.Resolve(delta, ts))
		}
	}
	return nil
}

// StaysDown reports whether rs crashes id for good: some entry for id has
// no restart.
func StaysDown(rs []Restart, id consensus.ProcessID) bool {
	for _, r := range rs {
		if r.Proc == id && r.RestartAt.IsZero() {
			return true
		}
	}
	return false
}
