package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core/consensus"
)

const (
	testDelta = 10 * time.Millisecond
	testTS    = 200 * time.Millisecond
)

// tx builds a transmission from→to at sentAt with the test parameters.
func tx(from, to consensus.ProcessID, sentAt time.Duration) Transmission {
	return Transmission{
		From: from, To: to, Msg: echoMsg{}, SentAt: sentAt,
		TS: testTS, Delta: testDelta,
	}
}

// fates runs the policy over a fixed message sequence with a fixed seed and
// returns the resulting fates.
func fates(p Policy, seed int64) []Fate {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Fate, 0, 64)
	for i := 0; i < 64; i++ {
		from := consensus.ProcessID(i % 5)
		to := consensus.ProcessID((i + 1 + i/5) % 5)
		at := time.Duration(i) * testTS / 64
		out = append(out, p.Fate(tx(from, to, at), rng))
	}
	return out
}

// TestCompositePoliciesDeterministic checks that every composite policy is a
// pure function of (message sequence, seed): two runs with the same seed
// agree fate-for-fate.
func TestCompositePoliciesDeterministic(t *testing.T) {
	groups := SplitBrain(5)
	policies := map[string]Policy{
		"chain": Chain{
			LossBurst{From: testTS / 2, DropProb: 0.5},
			TargetedDelay{Targets: map[consensus.ProcessID]bool{0: true}, Delay: 3 * testDelta},
			Chaos{DropProb: 0.2},
		},
		"partition-until-ts": PartitionUntilTS{Group: groups},
		"loss-burst":         LossBurst{From: testTS / 4, To: testTS / 2, DropProb: 0.7},
		"targeted-delay":     TargetedDelay{Targets: map[consensus.ProcessID]bool{2: true}},
		"duplicate":          Duplicate{Prob: 0.6, MaxExtra: 2, Base: Chaos{DropProb: 0.3}},
		"reorder":            Reorder{Base: LossBurst{From: testTS / 2, DropProb: 0.4}},
	}
	for name, p := range policies {
		a := fates(p, 42)
		b := fates(p, 42)
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				t.Errorf("%s: fate %d differs between identically-seeded runs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// TestPartitionUntilTSHealsExactlyAtTS pins the heal edge: a cross-group
// message sent one instant before TS is dropped; messages within a group
// are always delivered; and once healed (HealAt < TS) cross-group traffic
// flows within δ.
func TestPartitionUntilTSHealsExactlyAtTS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	groups := SplitBrain(5) // {0,1,2} vs {3,4}
	p := PartitionUntilTS{Group: groups}

	// Cross-group, one nanosecond before TS: still partitioned.
	if f := p.Fate(tx(0, 4, testTS-time.Nanosecond), rng); !f.Drop {
		t.Errorf("cross-group message at TS−1ns should drop, got %+v", f)
	}
	// Same group: always flows, with a δ-bounded delay.
	if f := p.Fate(tx(0, 2, testTS/2), rng); f.Drop || f.Delay > testDelta {
		t.Errorf("intra-group message should deliver within δ, got %+v", f)
	}
	// The simulated network never consults the policy at or after TS, so
	// healing "exactly at TS" means: there is no pre-TS instant at which
	// cross-group traffic flows. With an explicit earlier HealAt there is.
	healed := PartitionUntilTS{Group: groups, HealAt: testTS / 2}
	if f := healed.Fate(tx(0, 4, testTS/2), rng); f.Drop || f.Delay > testDelta {
		t.Errorf("cross-group message after HealAt should deliver within δ, got %+v", f)
	}
	if f := healed.Fate(tx(0, 4, testTS/2-time.Nanosecond), rng); !f.Drop {
		t.Errorf("cross-group message before HealAt should drop, got %+v", f)
	}
}

// TestChainCompositionOrder pins Chain's semantics: links are consulted in
// order, the first Drop short-circuits (later links draw no randomness), and
// surviving messages take the maximum delay over all links.
func TestChainCompositionOrder(t *testing.T) {
	slow := TargetedDelay{Targets: map[consensus.ProcessID]bool{0: true}, Delay: 5 * testDelta}

	// Drop-first: the dropping link short-circuits, so the rng is
	// untouched and stays aligned with a fresh source.
	rngA := rand.New(rand.NewSource(7))
	chain := Chain{DropAll{}, Chaos{DropProb: 0.5}}
	for i := 0; i < 8; i++ {
		if f := chain.Fate(tx(0, 1, testTS/2), rngA); !f.Drop {
			t.Fatalf("Chain{DropAll, …} must drop, got %+v", f)
		}
	}
	rngB := rand.New(rand.NewSource(7))
	if got, want := rngA.Int63(), rngB.Int63(); got != want {
		t.Errorf("short-circuited chain consumed randomness: %d vs %d", got, want)
	}

	// Drop-last: the same links in the other order consume Chaos's draws
	// before dropping — composition order is observable through the rng.
	rngC := rand.New(rand.NewSource(7))
	reversed := Chain{Chaos{DropProb: 0.5}, DropAll{}}
	for i := 0; i < 8; i++ {
		if f := reversed.Fate(tx(0, 1, testTS/2), rngC); !f.Drop {
			t.Fatalf("Chain{…, DropAll} must drop, got %+v", f)
		}
	}
	rngD := rand.New(rand.NewSource(7))
	if got, want := rngC.Int63(), rngD.Int63(); got == want {
		t.Error("reversed chain should have consumed randomness before dropping")
	}

	// Max-delay merge: a targeted 5δ link dominates the synchronous base
	// regardless of position.
	for _, c := range []Chain{{slow, Synchronous{}}, {Synchronous{}, slow}} {
		f := c.Fate(tx(0, 1, testTS/2), rand.New(rand.NewSource(3)))
		if f.Drop || f.Delay != 5*testDelta {
			t.Errorf("chain %v: want delay 5δ, got %+v", c, f)
		}
	}
}

// TestLossBurstWindowAndTargets pins the burst window edges and targeting.
func TestLossBurstWindowAndTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	burst := LossBurst{From: testTS / 2, To: testTS * 3 / 4}
	if f := burst.Fate(tx(0, 1, testTS/2), rng); !f.Drop {
		t.Errorf("message at burst start should drop, got %+v", f)
	}
	if f := burst.Fate(tx(0, 1, testTS*3/4), rng); f.Drop {
		t.Errorf("message at burst end should survive, got %+v", f)
	}
	if f := burst.Fate(tx(0, 1, 0), rng); f.Drop || f.Delay > testDelta {
		t.Errorf("message before burst should deliver within δ, got %+v", f)
	}

	targeted := LossBurst{Targets: map[consensus.ProcessID]bool{4: true}}
	if f := targeted.Fate(tx(4, 1, testTS/2), rng); !f.Drop {
		t.Errorf("message from target should drop, got %+v", f)
	}
	if f := targeted.Fate(tx(1, 4, testTS/2), rng); !f.Drop {
		t.Errorf("message to target should drop, got %+v", f)
	}
	if f := targeted.Fate(tx(0, 1, testTS/2), rng); f.Drop {
		t.Errorf("untargeted message should survive, got %+v", f)
	}
}

// TestDuplicateSpawnsLateCopies pins the Duplicate policy: dropped messages
// spawn nothing, surviving messages spawn at most MaxExtra copies, and every
// copy arrives strictly after the original (re-delivery, not pre-delivery).
func TestDuplicateSpawnsLateCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := Duplicate{Prob: 1, MaxExtra: 3, Spread: testDelta}
	f := p.Fate(tx(0, 1, testTS/2), rng)
	if f.Drop {
		t.Fatalf("synchronous base must not drop, got %+v", f)
	}
	if len(f.Duplicates) != 3 {
		t.Fatalf("Prob=1 MaxExtra=3: want 3 copies, got %d", len(f.Duplicates))
	}
	for i, d := range f.Duplicates {
		if d <= f.Delay || d > f.Delay+testDelta {
			t.Errorf("copy %d arrives at %v, want in (%v, %v]", i, d, f.Delay, f.Delay+testDelta)
		}
	}
	// A dropped original spawns no copies.
	dropped := Duplicate{Prob: 1, Base: DropAll{}}
	if f := dropped.Fate(tx(0, 1, testTS/2), rng); !f.Drop || len(f.Duplicates) != 0 {
		t.Errorf("dropped message must spawn no duplicates, got %+v", f)
	}
	// Prob=0 means the 0.5 default, not "never": over many draws some
	// messages must duplicate.
	def := Duplicate{}
	n := 0
	for i := 0; i < 64; i++ {
		n += len(def.Fate(tx(0, 1, testTS/2), rng).Duplicates)
	}
	if n == 0 {
		t.Error("default Duplicate never spawned a copy over 64 messages")
	}
	// Chain must carry re-deliveries through its merge, or composed
	// regimes silently lose the duplication they advertise.
	chained := Chain{Duplicate{Prob: 1, MaxExtra: 2, Spread: testDelta}, Synchronous{}}
	if f := chained.Fate(tx(0, 1, testTS/2), rng); len(f.Duplicates) != 2 {
		t.Errorf("Chain dropped re-deliveries: %+v", f)
	}
	// A zero Delta (unset PolicyTransportConfig) must not panic the
	// default-spread draw.
	zero := Transmission{From: 0, To: 1, Msg: echoMsg{}, SentAt: 0, TS: testTS, Delta: 0}
	if f := (Duplicate{Prob: 1}).Fate(zero, rng); len(f.Duplicates) != 1 {
		t.Errorf("Duplicate with zero Delta: %+v", f)
	}
}

// TestDuplicatesIntoCallerBuffer: a policy given a buffer in
// Transmission.Duplicates rules exactly as it does without one — same
// drops, delays, copies and random draws — Chain's union included, and
// once the buffer is large enough it appends in place.
func TestDuplicatesIntoCallerBuffer(t *testing.T) {
	p := Chain{
		Duplicate{Prob: 0.7, MaxExtra: 2, Spread: testDelta},
		Chaos{DropProb: 0.1, MaxDelay: testDelta},
		Duplicate{Prob: 0.5, MaxExtra: 3, Base: Reorder{}},
	}
	plain, buffered := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var buf []time.Duration
	for i := 0; i < 500; i++ {
		want := p.Fate(tx(0, 1, testTS/2), plain)
		in := tx(0, 1, testTS/2)
		in.Duplicates = buf[:0]
		got := p.Fate(in, buffered)
		if got.Drop != want.Drop || got.Delay != want.Delay || !slices.Equal(got.Duplicates, want.Duplicates) {
			t.Fatalf("message %d: with a buffer %+v, without %+v", i, got, want)
		}
		if len(got.Duplicates) > 0 && cap(buf) >= 5 && &got.Duplicates[0] != &buf[:1][0] {
			t.Fatalf("message %d: copies left a buffer of capacity %d", i, cap(buf))
		}
		if cap(got.Duplicates) > cap(buf) {
			buf = got.Duplicates[:0]
		}
	}
	if plain.Int63() != buffered.Int63() {
		t.Fatal("a buffer changed the number of random draws")
	}
}

// TestReorderBreaksFIFO pins the Reorder policy: the jitter stays within
// [base, base+Jitter], and with the default 4δ jitter two back-to-back
// messages on the same link are observably inverted somewhere in a short
// deterministic sequence.
func TestReorderBreaksFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Reorder{Jitter: 2 * testDelta, Base: TargetedDelay{Targets: map[consensus.ProcessID]bool{0: true}, Delay: testDelta}}
	for i := 0; i < 32; i++ {
		f := p.Fate(tx(0, 1, testTS/2), rng)
		if f.Drop {
			t.Fatalf("reorder must not drop, got %+v", f)
		}
		if f.Delay < testDelta || f.Delay > 3*testDelta {
			t.Errorf("jittered delay %v outside [δ, 3δ]", f.Delay)
		}
	}
	// Default jitter (4δ) inverts consecutive sends: find a pair where the
	// earlier send arrives later.
	def := Reorder{}
	inverted := false
	var prevArrival time.Duration
	for i := 0; i < 32; i++ {
		sent := time.Duration(i) * testDelta / 4
		f := def.Fate(tx(0, 1, sent), rng)
		arrival := sent + f.Delay
		if i > 0 && arrival < prevArrival {
			inverted = true
		}
		prevArrival = arrival
	}
	if !inverted {
		t.Error("default Reorder never inverted delivery order over 32 back-to-back sends")
	}
}

// TestSplitBrainGroups pins the grouping convention the library depends on:
// the low half (majority for odd n) is group 0.
func TestSplitBrainGroups(t *testing.T) {
	g := SplitBrain(5)
	for id, want := range map[consensus.ProcessID]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1} {
		if g[id] != want {
			t.Errorf("SplitBrain(5)[%d] = %d, want %d", id, g[id], want)
		}
	}
}

// TestGroupChurnReshufflesCuts pins GroupChurn: membership is a pure
// function of (Seed, window, process) — consistent within a window, no rng
// consumed for the cut — cross-group messages drop, intra-group ones defer
// to Base, and the layout actually changes across windows and seeds.
func TestGroupChurnReshufflesCuts(t *testing.T) {
	p := GroupChurn{Groups: 2, Period: 4 * testDelta, Seed: 1}
	const procs = 8

	// Within one window the cut is stable: a message between two processes
	// either always drops or always survives, whatever the rng says.
	for a := consensus.ProcessID(0); a < procs; a++ {
		for b := consensus.ProcessID(0); b < procs; b++ {
			if a == b {
				continue
			}
			first := p.Fate(tx(a, b, 0), rand.New(rand.NewSource(1))).Drop
			for s := int64(2); s < 5; s++ {
				if got := p.Fate(tx(a, b, testDelta), rand.New(rand.NewSource(s))).Drop; got != first {
					t.Fatalf("cut %d→%d flapped within a window (rng seed %d)", a, b, s)
				}
			}
			// Symmetric cut: if a cannot reach b, b cannot reach a.
			if back := p.Fate(tx(b, a, 0), rand.New(rand.NewSource(1))).Drop; back != first {
				t.Fatalf("cut %d→%d asymmetric", a, b)
			}
		}
	}

	// Across windows the layout reshuffles: some pair must change sides
	// within a handful of periods, and different seeds cut differently.
	layout := func(g GroupChurn, window int64) (s string) {
		for i := consensus.ProcessID(0); i < procs; i++ {
			s += fmt.Sprintf("%d", g.group(window, i, 2))
		}
		return
	}
	changed := false
	for w := int64(1); w < 8; w++ {
		if layout(p, w) != layout(p, 0) {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("group layout never changed over 8 windows")
	}
	if layout(p, 0) == layout(GroupChurn{Groups: 2, Seed: 99}, 0) {
		t.Error("seeds 1 and 99 produced the same window-0 layout")
	}

	// Intra-group traffic defers to Base; default Base is Synchronous.
	for a := consensus.ProcessID(0); a < procs; a++ {
		for b := consensus.ProcessID(0); b < procs; b++ {
			if a == b || p.group(0, a, 2) != p.group(0, b, 2) {
				continue
			}
			if f := p.Fate(tx(a, b, 0), rand.New(rand.NewSource(1))); f.Drop || f.Delay > testDelta {
				t.Fatalf("intra-group %d→%d not synchronous: %+v", a, b, f)
			}
		}
	}
}
