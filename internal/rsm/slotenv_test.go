package rsm

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/storage"
)

// stubEnv is the outer environment of a slotEnv under test. It records what
// reaches it without allocating; any call it does not override is a nil
// dereference, which is the point.
type stubEnv struct {
	consensus.Environment
	stubStore
	lastKind string
	sets     int
	cancels  []consensus.TimerID // preallocated: recording must not allocate
}

func (s *stubEnv) Store() storage.Store                      { return &s.stubStore }
func (s *stubEnv) Emit(kind string, _ int64)                 { s.lastKind = kind }
func (s *stubEnv) SetTimer(consensus.TimerID, time.Duration) { s.sets++ }
func (s *stubEnv) CancelTimer(id consensus.TimerID)          { s.cancels = append(s.cancels, id) }

// stubStore remembers the last key it was asked for.
type stubStore struct {
	storage.Store
	lastKey string
}

func (s *stubStore) Put(key string, _ any) error         { s.lastKey = key; return nil }
func (s *stubStore) Get(key string, _ any) (bool, error) { s.lastKey = key; return false, nil }
func (s *stubStore) Delete(key string) error             { s.lastKey = key; return nil }

func stubSlotEnv(slot int64) (*slotEnv, *stubEnv) {
	outer := &stubEnv{cancels: make([]consensus.TimerID, 0, 256)}
	env := newSlotEnv(&Replica{env: outer}, slot)
	return &env, outer
}

// TestSlotEnvCallsDoNotAllocate pins what a slot instance's persist, emit
// and cancel cost its replica beyond the outer call: nothing. Every name
// the slot needs was built when the instance was, or on its first persist.
func TestSlotEnvCallsDoNotAllocate(t *testing.T) {
	env, outer := stubSlotEnv(41)
	var state any = "durable"
	var out string
	for name, call := range map[string]func(){
		"Store":                  func() { _ = env.Store() },
		"Put of the cached key":  func() { _ = env.Store().Put("modpaxos-state", state) },
		"Get of the cached key":  func() { _, _ = env.Store().Get("modpaxos-state", &out) },
		"Emit":                   func() { env.Emit("session", 3) },
		"CancelTimer, unarmed":   func() { env.CancelTimer(5) },
		"SetTimer + CancelTimer": func() { env.SetTimer(2, time.Second); env.CancelTimer(2) },
	} {
		call() // first use may build the name it then keeps
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if outer.lastKey != "slot41/modpaxos-state" || outer.lastKind != "slot-session" {
		t.Errorf("outer environment saw key %q and series %q", outer.lastKey, outer.lastKind)
	}
}

// TestPrefixStoreKeys: the one-key cache never answers for another key.
func TestPrefixStoreKeys(t *testing.T) {
	env, outer := stubSlotEnv(7)
	for _, inner := range []string{"", "a", "a", "b", "", "a"} {
		if err := env.Store().Delete(inner); err != nil || outer.lastKey != "slot7/"+inner {
			t.Fatalf("inner key %q reached the store as %q (err %v)", inner, outer.lastKey, err)
		}
	}
}

// TestRetireCancelsArmedTimers: a slot cancels the timers it holds armed —
// those it set and has not cancelled, fired or not — and no others, each
// once. The outer call is a mutex and a map delete on live.Node. After that
// the environment is silent: what modpaxos.decide does once Decide has
// retired the slot (cancel, announce, arm the gossip timer) reaches nothing.
func TestRetireCancelsArmedTimers(t *testing.T) {
	env, outer := stubSlotEnv(3)
	outerID := func(inner consensus.TimerID) consensus.TimerID { return (3+1)*timersPerSlot + inner }

	env.CancelTimer(1) // never armed
	env.SetTimer(0, time.Second)
	env.SetTimer(1, time.Second)
	env.SetTimer(2, time.Second)
	env.SetTimer(2, time.Minute) // re-armed: still one timer
	env.CancelTimer(1)
	env.CancelTimer(1) // already cancelled
	if got, want := outer.cancels, []consensus.TimerID{outerID(1)}; !slices.Equal(got, want) {
		t.Fatalf("before retirement the outer environment cancelled %v, want %v", got, want)
	}
	outer.cancels = outer.cancels[:0]
	env.retire()
	if got, want := outer.cancels, []consensus.TimerID{outerID(0), outerID(2)}; !slices.Equal(got, want) {
		t.Fatalf("retirement cancelled %v, want %v", got, want)
	}
	outer.cancels = outer.cancels[:0]
	env.retire()
	env.CancelTimer(0) // modpaxos cancels after Decide retired the slot...
	if got := outer.cancels; len(got) != 0 {
		t.Fatalf("cancelled again after retirement: %v", got)
	}
	// ...then announces and arms. The stub's Send and Broadcast are nil
	// dereferences, so reaching the outer environment panics.
	env.Broadcast(modpaxos.Decided{Val: "v"})
	env.Send(1, modpaxos.Decided{Val: "v"})
	env.SetTimer(3, time.Second)
	if outer.sets != 4 || env.armed[3] {
		t.Fatalf("outer environment saw %d SetTimer calls, want 4 (inner 3 held armed: %v)", outer.sets, env.armed[3])
	}
}
