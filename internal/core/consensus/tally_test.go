package consensus

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTallyCountsEachProcessOnce(t *testing.T) {
	var tl Tally[string]
	if tl.Len() != 0 {
		t.Fatalf("zero tally has Len %d", tl.Len())
	}
	if _, ok := tl.Get(3); ok {
		t.Fatal("zero tally has a value for process 3")
	}
	tl.Set(3, "a")
	tl.Set(70, "b") // beyond the first bitset word
	tl.Set(3, "c")  // replaces, does not count twice
	if tl.Len() != 2 {
		t.Fatalf("Len = %d after two processes voted, want 2", tl.Len())
	}
	if v, ok := tl.Get(3); !ok || v != "c" {
		t.Fatalf("Get(3) = %q, %v; want the replacing value", v, ok)
	}
	for _, absent := range []ProcessID{-1, 0, 4, 69, 71, 1000} {
		if _, ok := tl.Get(absent); ok {
			t.Fatalf("Get(%d) reports a value nobody set", absent)
		}
	}
}

func TestTallyResetForgetsValues(t *testing.T) {
	var tl Tally[int]
	tl.Set(1, 10)
	tl.Set(64, 20)
	tl.Reset()
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after Reset", tl.Len())
	}
	for range tl.All() {
		t.Fatal("All yields after Reset")
	}
	if _, ok := tl.Get(64); ok {
		t.Fatal("a value survived Reset")
	}
	tl.Set(64, 30)
	if v, _ := tl.Get(64); v != 30 || tl.Len() != 1 {
		t.Fatalf("after Reset and Set: value %d, Len %d", v, tl.Len())
	}
}

// TestTallyMatchesMap holds the tally against the map it replaced under a
// random sequence of votes and resets, and checks All's order.
func TestTallyMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tl Tally[int]
	ref := make(map[ProcessID]int)
	for step := 0; step < 5000; step++ {
		if rng.Intn(200) == 0 {
			tl.Reset()
			clear(ref)
		}
		id, v := ProcessID(rng.Intn(150)), rng.Int()
		tl.Set(id, v)
		ref[id] = v
		if tl.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, tl.Len(), len(ref))
		}
		if step%50 != 0 {
			continue
		}
		var ids []ProcessID
		for id, v := range tl.All() {
			if ref[id] != v {
				t.Fatalf("step %d: All yields %d for process %d, map has %d", step, v, id, ref[id])
			}
			ids = append(ids, id)
		}
		if len(ids) != len(ref) || !slices.IsSorted(ids) {
			t.Fatalf("step %d: All yielded %d processes (sorted: %v), map has %d", step, len(ids), slices.IsSorted(ids), len(ref))
		}
	}
}

func TestTallyAllStopsEarly(t *testing.T) {
	var tl Tally[bool]
	for id := ProcessID(0); id < 10; id++ {
		tl.Set(id, true)
	}
	seen := 0
	for id := range tl.All() {
		seen++
		if id == 3 {
			break
		}
	}
	if seen != 4 {
		t.Fatalf("visited %d processes before the break at 3, want 4", seen)
	}
}

// TestTallyReceivePathDoesNotAllocate pins what the tally is for: once its
// storage covers the cluster, recording a vote, counting a quorum and
// starting the next ballot allocate nothing.
func TestTallyReceivePathDoesNotAllocate(t *testing.T) {
	type vote struct {
		bal Ballot
		val Value
	}
	const n = 33
	var tl Tally[vote]
	round := func() {
		tl.Reset()
		for id := ProcessID(0); id < n; id++ {
			tl.Set(id, vote{bal: Ballot(id), val: "v"})
			count := 0
			for _, v := range tl.All() {
				if v.val == "v" {
					count++
				}
			}
			if count != tl.Len() {
				t.Fatalf("counted %d of %d", count, tl.Len())
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a ballot's worth of votes allocated %.1f times, want 0", allocs)
	}
}
