package consensus

import (
	"testing"
	"testing/quick"
)

func TestMajority(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 17: 9, 33: 17}
	for n, want := range cases {
		if got := Majority(n); got != want {
			t.Errorf("Majority(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: two majorities of n always intersect.
func TestQuickMajoritiesIntersect(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		return 2*Majority(n) > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallotSessionOwner(t *testing.T) {
	const n = 5
	cases := []struct {
		b       Ballot
		session int64
		owner   ProcessID
	}{
		{0, 0, 0}, {3, 0, 3}, {4, 0, 4}, {5, 1, 0}, {7, 1, 2}, {23, 4, 3},
	}
	for _, c := range cases {
		if got := c.b.Session(n); got != c.session {
			t.Errorf("Ballot(%d).Session(%d) = %d, want %d", c.b, n, got, c.session)
		}
		if got := c.b.Owner(n); got != c.owner {
			t.Errorf("Ballot(%d).Owner(%d) = %d, want %d", c.b, n, got, c.owner)
		}
	}
	if NoBallot.Session(n) != -1 || NoBallot.Owner(n) != -1 {
		t.Error("NoBallot should have session/owner -1")
	}
}

// Property: BallotFor is the inverse of (Session, Owner), and the paper's
// Start Phase 1 update mbal ← (⌊mbal/N⌋+1)·N + p always advances the session
// by at least one and preserves ownership.
func TestQuickBallotStructure(t *testing.T) {
	f := func(sessRaw uint16, pRaw, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := ProcessID(int(pRaw) % n)
		sess := int64(sessRaw)
		b := BallotFor(sess, p, n)
		if b.Session(n) != sess || b.Owner(n) != p {
			return false
		}
		next := BallotFor(b.Session(n)+1, p, n)
		return next.Session(n) == sess+1 && next.Owner(n) == p && next > b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBallotString(t *testing.T) {
	if NoBallot.String() != "⊥" {
		t.Errorf("NoBallot.String() = %q", NoBallot.String())
	}
	if Ballot(17).String() != "17" {
		t.Errorf("Ballot(17).String() = %q", Ballot(17).String())
	}
}

func TestCheckerAgreementViolation(t *testing.T) {
	c := NewSafetyChecker(2)
	c.RecordProposal(0, "a")
	c.RecordProposal(1, "b")
	if err := c.RecordDecision(Decision{Proc: 0, Value: "a"}); err != nil {
		t.Fatalf("first decision: %v", err)
	}
	if err := c.RecordDecision(Decision{Proc: 1, Value: "b"}); err == nil {
		t.Fatal("conflicting decision not detected")
	}
	if c.Violation() == nil {
		t.Fatal("violation not remembered")
	}
}

func TestCheckerValidityViolation(t *testing.T) {
	c := NewSafetyChecker(1)
	c.RecordProposal(0, "a")
	if err := c.RecordDecision(Decision{Proc: 0, Value: "zzz"}); err == nil {
		t.Fatal("unproposed decision not detected")
	}
}

func TestCheckerIntegrity(t *testing.T) {
	c := NewSafetyChecker(1)
	c.RecordProposal(0, "a")
	if err := c.RecordDecision(Decision{Proc: 0, Value: "a", At: 1}); err != nil {
		t.Fatal(err)
	}
	// Re-deciding the same value (restart) is fine.
	if err := c.RecordDecision(Decision{Proc: 0, Value: "a", At: 2}); err != nil {
		t.Fatalf("idempotent re-decision rejected: %v", err)
	}
	if c.DecidedCount() != 1 {
		t.Fatalf("DecidedCount = %d, want 1", c.DecidedCount())
	}
	// Re-deciding a different value is an integrity violation.
	if err := c.RecordDecision(Decision{Proc: 0, Value: "b", At: 3}); err == nil {
		t.Fatal("changed decision not detected")
	}
}

func TestCheckerQueries(t *testing.T) {
	c := NewSafetyChecker(3)
	c.RecordProposal(0, "a")
	c.RecordProposal(1, "a")
	c.RecordProposal(2, "a")
	must := func(d Decision) {
		t.Helper()
		if err := c.RecordDecision(d); err != nil {
			t.Fatal(err)
		}
	}
	must(Decision{Proc: 1, Value: "a", At: 10})
	must(Decision{Proc: 0, Value: "a", At: 5})

	if d, ok := c.DecisionOf(1); !ok || d.At != 10 {
		t.Fatalf("DecisionOf(1) = %+v, %v", d, ok)
	}
	if _, ok := c.DecisionOf(2); ok {
		t.Fatal("DecisionOf(2) should be absent")
	}
	first, ok := c.FirstDecision()
	if !ok || first.Proc != 0 {
		t.Fatalf("FirstDecision = %+v, %v; want proc 0", first, ok)
	}
	if c.AllDecided([]ProcessID{0, 1, 2}) {
		t.Fatal("AllDecided should be false with 2 undecided")
	}
	if !c.AllDecided([]ProcessID{0, 1}) {
		t.Fatal("AllDecided([0,1]) should be true")
	}
	// Enough decisions in total is not enough: the count only rules out.
	if c.AllDecided([]ProcessID{1, 2}) {
		t.Fatal("AllDecided([1,2]) should be false: 2 has not decided")
	}
	must(Decision{Proc: 1, Value: "a", At: 12}) // idempotent: counts once
	if c.AllDecided([]ProcessID{0, 1, 2}) {
		t.Fatal("a repeated decision counted twice")
	}
	if _, ok := c.LastDecisionAmong([]ProcessID{0, 1, 2}); ok {
		t.Fatal("LastDecisionAmong should report missing decision")
	}
	last, ok := c.LastDecisionAmong([]ProcessID{0, 1})
	if !ok || last != 10 {
		t.Fatalf("LastDecisionAmong = %v, %v; want 10, true", last, ok)
	}
	if got := len(c.Decisions()); got != 2 {
		t.Fatalf("Decisions() len = %d, want 2", got)
	}
}

// Property: the checker accepts any sequence of identical decisions over any
// subset of proposers and never reports a violation.
func TestQuickCheckerAcceptsUnanimity(t *testing.T) {
	f := func(procs []uint8, v string) bool {
		c := NewSafetyChecker(8)
		for i := 0; i < 8; i++ {
			c.RecordProposal(ProcessID(i), Value(v))
		}
		for _, p := range procs {
			if err := c.RecordDecision(Decision{Proc: ProcessID(p % 8), Value: Value(v)}); err != nil {
				return false
			}
		}
		return c.Violation() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
