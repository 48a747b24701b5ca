package consensus

import "testing"

type testReply struct {
	Bal Ballot
	Val Value
}

func (testReply) Type() string { return "test-reply" }

// TestReplyBoxesOnceWhileUnchanged pins the helper's contract: an unchanged
// reply costs no allocation, a changed one is boxed afresh and carries the
// new value.
func TestReplyBoxesOnceWhileUnchanged(t *testing.T) {
	var r Reply[testReply]
	a, b := testReply{Bal: 1, Val: "a"}, testReply{Bal: 2, Val: "a"}
	if got := r.Box(a); got != Message(a) {
		t.Fatalf("first Box = %v, want %v", got, a)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Box(a) }); allocs != 0 {
		t.Fatalf("re-boxing an unchanged reply allocated %.1f times, want 0", allocs)
	}
	if got := r.Box(b); got != Message(b) {
		t.Fatalf("Box after a change = %v, want %v", got, b)
	}
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			r.Box(a)
		} else {
			r.Box(b)
		}
	})
	if allocs != 1 {
		t.Fatalf("a reply that changes every call allocated %.1f times per call, want 1", allocs)
	}
}
