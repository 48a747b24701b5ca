// Package consensus defines the types shared by every protocol in this
// repository: process identities, values, ballots with the paper's session
// structure, the message/timer event model, and the Environment interface
// that both substrates (the deterministic simulator and the live goroutine
// runtime) implement.
//
// A protocol is a deterministic state machine (Process) driven by three
// inputs — Init, HandleMessage, HandleTimer — and it affects the world only
// through its Environment. This is what lets the identical protocol code run
// reproducibly under simulation and natively under goroutines.
package consensus

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/storage"
)

// ProcessID identifies a process; processes are numbered 0 through N−1 as
// in the paper.
type ProcessID int

// Value is a proposed or decided consensus value. The empty string is a
// legal value; absence is always signalled separately.
type Value string

// TimerID names a protocol-defined timer. Each protocol declares its own
// constants; an environment keys pending timers by TimerID, and re-arming an
// ID replaces the previous timer.
type TimerID int

// Message is a protocol message. Implementations must be plain data structs
// (exported fields, no pointers shared with the sender) and immutable once
// sent: the simulator may deliver one arbitrarily later, the live memory
// transport hands the same value to the receiver's goroutine, and the live
// TCP transport serializes it on a writer goroutine after Send has returned.
// A sender that mutated a sent message (or anything it points to) would race
// with all three.
type Message interface {
	// Type returns a short stable name used for tracing and metrics.
	Type() string
}

// Environment is everything a Process may do to the outside world. All
// methods must be called only from within the process's event handlers
// (Init/HandleMessage/HandleTimer); environments are not safe for use from
// other goroutines.
type Environment interface {
	// ID returns this process's identity.
	ID() ProcessID
	// N returns the total number of processes.
	N() int
	// Now returns the process's local clock reading. Local clocks may
	// drift (bounded rate error ρ after stabilization) and are not
	// synchronized across processes.
	Now() time.Duration
	// Send transmits m to process to. Delivery obeys the partial-synchrony
	// model: arbitrary loss/delay before stabilization, within δ after.
	Send(to ProcessID, m Message)
	// Broadcast sends m to every process, including the sender.
	Broadcast(m Message)
	// SetTimer arms (or re-arms) the one-shot timer id to fire after d on
	// the local clock. HandleTimer(id) is invoked when it fires.
	SetTimer(id TimerID, d time.Duration)
	// CancelTimer disarms a pending timer; canceling an unarmed timer is a
	// no-op.
	CancelTimer(id TimerID)
	// Store returns the process's stable storage, which survives crashes.
	Store() storage.Store
	// Rand returns a deterministic (under simulation) random source.
	Rand() *rand.Rand
	// Decide reports that this process has irrevocably decided v. The
	// environment records the decision for safety checking and metrics;
	// calling Decide twice with different values is a detected violation.
	Decide(v Value)
	// Emit records a named time-series observation (for example the
	// current session number) with the trace collector.
	Emit(kind string, value int64)
	// Logf writes a debug log line tagged with the process and time.
	Logf(format string, args ...any)
}

// Process is a consensus protocol instance at one process. Implementations
// must be deterministic: all nondeterminism comes from the Environment.
//
// Init is called when the process (re)starts. On a restart after a crash
// the Process is a fresh object and must recover its durable state from
// env.Store() — the paper's "resuming where it left off".
type Process interface {
	Init(env Environment)
	HandleMessage(from ProcessID, m Message)
	HandleTimer(id TimerID)
}

// Reuser is a Process that takes over the storage (tallies, queues, reply
// boxes; never state) a discarded process of its own type grew, which must
// not run again. A substrate that keeps discarded processes calls Reuse on
// a fresh process before Init, which resets that storage as its own: the
// simulator's nodes do, across crashes and runs. An rsm replica, which
// builds only modpaxos instances, keeps its retired slots' instances on a
// free list and resets one in place (modpaxos.Process.Recycle) instead.
type Reuser interface{ Reuse(old Process) }

// Factory constructs a protocol instance for one process. It is invoked at
// start and again at every restart.
type Factory func(id ProcessID, n int, proposal Value) Process

// Majority returns the size of a strict majority of n processes
// (⌊n/2⌋ + 1). The paper's quorums — ⌈N/2⌉ phase-1b messages and a majority
// of phase-2b messages — both intersect with this quorum; we use the strict
// majority uniformly, which is safe for all n.
func Majority(n int) int { return n/2 + 1 }

// Ballot is a Paxos ballot number. The paper structures ballots into
// sessions: session(b) = ⌊b/N⌋, and ballot b belongs to (is "owned by")
// process b mod N.
type Ballot int64

// NoBallot marks "nothing accepted yet"; it is smaller than every real
// ballot.
const NoBallot Ballot = -1

// Session returns ⌊b/n⌋, the session of the ballot (§4).
func (b Ballot) Session(n int) int64 {
	if b < 0 {
		return -1
	}
	return int64(b) / int64(n)
}

// Owner returns b mod n, the process that owns the ballot. Phase 1a
// messages are treated as if sent by the ballot's owner.
func (b Ballot) Owner(n int) ProcessID {
	if b < 0 {
		return -1
	}
	return ProcessID(int64(b) % int64(n))
}

// BallotFor returns the ballot in the given session owned by process p:
// session·n + p.
func BallotFor(session int64, p ProcessID, n int) Ballot {
	return Ballot(session*int64(n) + int64(p))
}

// String implements fmt.Stringer.
func (b Ballot) String() string {
	if b == NoBallot {
		return "⊥"
	}
	return fmt.Sprintf("%d", int64(b))
}
