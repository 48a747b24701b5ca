package live

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// recorderTransport logs every Send it receives, for fate-sequence pins.
type recorderTransport struct {
	mu     sync.Mutex
	sends  []recordedSend
	closed bool
}

type recordedSend struct {
	From, To consensus.ProcessID
	Type     string
}

func (r *recorderTransport) Register(consensus.ProcessID, func(consensus.ProcessID, consensus.Message)) {
}

func (r *recorderTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sends = append(r.sends, recordedSend{From: from, To: to, Type: m.Type()})
}

func (r *recorderTransport) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

func (r *recorderTransport) log() []recordedSend {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]recordedSend, len(r.sends))
	copy(out, r.sends)
	return out
}

// scriptedPolicyTransport builds a PolicyTransport over a recorder with a
// scripted clock, replays a fixed pre-TS send sequence from one goroutine,
// and returns the resulting delivery log plus the drop count. Delays are
// real wall-clock timers, so the script uses a policy with zero-delay fates
// (PartitionUntilTS would delay; DropAll and Chaos with huge drop are
// exact) — here LossBurst with DropProb, whose survivors take the
// synchronous base delay; we wait for timers via Close-free settling.
func scriptedFates(t *testing.T, seed int64) ([]recordedSend, int) {
	t.Helper()
	rec := &recorderTransport{}
	col := trace.NewCollector()
	pt := NewPolicyTransport(rec, PolicyTransportConfig{
		Policy: simnet.Chain{
			simnet.LossBurst{From: 0, To: 100 * time.Millisecond, DropProb: 0.5, Base: simnet.Chaos{DropProb: 0.2, MaxDelay: 1}},
		},
		TS:        100 * time.Millisecond,
		Delta:     10 * time.Millisecond,
		Seed:      seed,
		Collector: col,
	})
	defer func() { _ = pt.Close() }()
	// Scripted clock: message i is sent at i ms, all before TS.
	var i int
	pt.now = func() time.Duration { return time.Duration(i) * time.Millisecond }
	for i = 0; i < 64; i++ {
		from := consensus.ProcessID(i % 3)
		to := consensus.ProcessID((i + 1) % 3)
		pt.Send(from, to, modpaxos.Decided{Val: "x"})
	}
	// Survivors carry at most 1ns of fate delay; give their timers a
	// moment to fire before reading the log.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(rec.log())+col.TotalDropped() == 64 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return rec.log(), col.TotalDropped()
}

// TestPolicyTransportDeterministicForFixedSeed pins the reproducibility
// contract of scenario-driven live runs: for a fixed seed and send
// sequence, the fate of every message — dropped or delivered, in per-link
// order — is byte-identical across repeats, and a different seed produces a
// different fault pattern.
func TestPolicyTransportDeterministicForFixedSeed(t *testing.T) {
	logA, dropsA := scriptedFates(t, 42)
	logB, dropsB := scriptedFates(t, 42)
	if dropsA != dropsB {
		t.Fatalf("identically-seeded transports dropped %d vs %d messages", dropsA, dropsB)
	}
	// Per-link delivery sequences must match exactly (global interleaving
	// of timer callbacks may differ; the fate keying makes per-link order
	// the invariant).
	perLink := func(log []recordedSend) map[connKey]int {
		out := make(map[connKey]int)
		for _, s := range log {
			out[connKey{s.From, s.To}]++
		}
		return out
	}
	if !reflect.DeepEqual(perLink(logA), perLink(logB)) {
		t.Fatalf("identically-seeded transports delivered different per-link counts:\n%v\n%v", perLink(logA), perLink(logB))
	}
	logC, dropsC := scriptedFates(t, 43)
	if dropsC == dropsA && reflect.DeepEqual(perLink(logC), perLink(logA)) {
		t.Error("different seeds produced the identical fault pattern (suspicious)")
	}
}

// TestPolicyTransportMapsFatesToWallClock pins the fate translation: drops
// never reach the inner transport, duplicates arrive as extra inner sends,
// and post-TS messages bypass the policy entirely.
func TestPolicyTransportMapsFatesToWallClock(t *testing.T) {
	rec := &recorderTransport{}
	col := trace.NewCollector()
	pt := NewPolicyTransport(rec, PolicyTransportConfig{
		Policy:    simnet.DropAll{},
		TS:        50 * time.Millisecond,
		Delta:     5 * time.Millisecond,
		Collector: col,
	})
	var elapsed time.Duration
	pt.now = func() time.Duration { return elapsed }

	// Pre-TS under DropAll: everything dropped, nothing delivered.
	for i := 0; i < 8; i++ {
		elapsed = time.Duration(i) * time.Millisecond
		pt.Send(0, 1, modpaxos.Decided{Val: "x"})
	}
	if drops := col.TotalDropped(); drops != 8 || len(rec.log()) != 0 {
		t.Fatalf("DropAll pre-TS: want 8 drops 0 sends, got %d drops %d sends", drops, len(rec.log()))
	}
	// Post-TS: policy bypassed, delivered synchronously.
	elapsed = 50 * time.Millisecond
	pt.Send(0, 1, modpaxos.Decided{Val: "x"})
	if len(rec.log()) != 1 {
		t.Fatalf("post-TS send must pass through immediately, log has %d", len(rec.log()))
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	if !rec.closed {
		t.Error("Close must close the inner transport")
	}

	// Duplicates: a Prob=1 duplicate policy delivers the original plus one
	// copy per pre-TS message.
	rec2 := &recorderTransport{}
	dup := NewPolicyTransport(rec2, PolicyTransportConfig{
		Policy: simnet.Duplicate{Prob: 1, MaxExtra: 1, Spread: time.Millisecond,
			Base: simnet.Chaos{MaxDelay: 1}},
		TS:    50 * time.Millisecond,
		Delta: 5 * time.Millisecond,
	})
	dup.now = func() time.Duration { return 0 }
	for i := 0; i < 4; i++ {
		dup.Send(0, 1, modpaxos.Decided{Val: "x"})
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(rec2.log()) < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(rec2.log()); got != 8 {
		t.Errorf("Duplicate{Prob:1}: want 4 originals + 4 copies, got %d deliveries", got)
	}
	if err := dup.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyTransportCloseCancelsPendingDeliveries pins Close semantics:
// messages in the timer queue at Close never reach the inner transport, and
// sends after Close are silently ignored.
func TestPolicyTransportCloseCancelsPendingDeliveries(t *testing.T) {
	rec := &recorderTransport{}
	pt := NewPolicyTransport(rec, PolicyTransportConfig{
		Policy: simnet.TargetedDelay{
			Targets: map[consensus.ProcessID]bool{0: true},
			Delay:   100 * time.Millisecond,
		},
		TS:    time.Second,
		Delta: 10 * time.Millisecond,
	})
	pt.now = func() time.Duration { return 0 }
	for i := 0; i < 8; i++ {
		pt.Send(0, 1, modpaxos.Decided{Val: "x"})
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	pt.Send(0, 1, modpaxos.Decided{Val: "x"}) // after Close: ignored
	time.Sleep(150 * time.Millisecond)
	if got := len(rec.log()); got != 0 {
		t.Errorf("deliveries after Close: %d", got)
	}
	if err := pt.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
