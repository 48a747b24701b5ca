package dynamics

import (
	"testing"

	"repro/internal/core/consensus"
)

// TestUpdateRules checks each rule's update as the pure function it is.
func TestUpdateRules(t *testing.T) {
	has := func(v consensus.Value) opinion { return opinion{val: v} }
	lost := func(v consensus.Value) opinion { return opinion{val: v, undecided: true} }
	ops := func(o ...opinion) []opinion { return o }

	cases := []struct {
		rule    string
		name    string
		self    opinion
		samples []opinion
		other   consensus.Value
		want    opinion
	}{
		{"usd", "same opinion keeps", has("a"), ops(has("a")), "", has("a")},
		{"usd", "different opinion drops own", has("a"), ops(has("b")), "", lost("a")},
		{"usd", "opinionated ignores undecided sample", has("a"), ops(lost("b")), "", has("a")},
		{"usd", "undecided adopts sample", lost("a"), ops(has("b")), "", has("b")},
		{"usd", "undecided samples undecided", lost("a"), ops(lost("b")), "", lost("a")},

		{"3majority", "unanimous", has("x"), ops(has("a"), has("a"), has("a")), "", has("a")},
		{"3majority", "first two pair", has("x"), ops(has("a"), has("a"), has("b")), "", has("a")},
		{"3majority", "outer two pair", has("x"), ops(has("a"), has("b"), has("a")), "", has("a")},
		{"3majority", "last two pair", has("x"), ops(has("b"), has("a"), has("a")), "", has("a")},
		{"3majority", "no pair takes first sample", has("x"), ops(has("a"), has("b"), has("c")), "", has("a")},

		{"2choices", "agreement adopts", has("x"), ops(has("a"), has("a")), "", has("a")},
		{"2choices", "disagreement keeps", has("x"), ops(has("a"), has("b")), "", has("x")},

		{"minority", "lone dissenter last", has("a"), ops(has("a"), has("a"), has("b")), "", has("b")},
		{"minority", "lone dissenter middle", has("a"), ops(has("a"), has("b"), has("a")), "", has("b")},
		{"minority", "lone dissenter first", has("a"), ops(has("b"), has("a"), has("a")), "", has("b")},
		{"minority", "unanimous sample flips to other", has("a"), ops(has("a"), has("a"), has("a")), "b", has("b")},
		{"minority", "unanimous sample of other's opinion", has("b"), ops(has("a"), has("a"), has("a")), "a", has("a")},
		{"minority", "unanimous with no other known is a fixed point", has("a"), ops(has("a"), has("a"), has("a")), "", has("a")},
		{"minority", "three distinct take first sample", has("x"), ops(has("a"), has("b"), has("c")), "x", has("a")},
	}
	byName := make(map[string]*rule)
	for i := range rules {
		byName[rules[i].name] = &rules[i]
	}
	for _, c := range cases {
		r := byName[c.rule]
		if len(c.samples) != r.samples {
			t.Fatalf("%s/%s: %d samples for a %d-sample rule", c.rule, c.name, len(c.samples), r.samples)
		}
		if got := r.update(c.self, c.samples, c.other); got != c.want {
			t.Errorf("%s/%s: update(%+v, %+v, other=%q) = %+v, want %+v", c.rule, c.name, c.self, c.samples, c.other, got, c.want)
		}
	}
}

// TestRuleTable pins what the core relies on: sample sizes fit the fixed
// buffer, and the streak constant follows the sample size.
func TestRuleTable(t *testing.T) {
	for _, r := range rules {
		if r.samples < 1 || r.samples > maxSamples {
			t.Errorf("%s: samples = %d, want 1..%d", r.name, r.samples, maxSamples)
		}
		want := 1
		if r.samples == 1 {
			want = 2
		}
		if r.streakLogs != want {
			t.Errorf("%s: streakLogs = %d with %d samples, want %d", r.name, r.streakLogs, r.samples, want)
		}
	}
}
