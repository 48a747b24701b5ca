package dynamics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

func TestEveryMessageHasACodec(t *testing.T) {
	// One message set for the whole family.
	consensustest.CheckCodecs(t, Descriptors()[0].Messages)
}

func TestWireRoundTrip(t *testing.T) {
	big := consensus.Value(strings.Repeat("v", 1<<20))
	for _, m := range []consensus.Message{
		Query{}, Query{Round: 12}, Query{Round: math.MinInt64}, Query{Round: math.MaxInt64},
		Reply{}, Reply{Round: 3, Opinion: "a"}, Reply{Round: 3, Opinion: "stale", Undecided: true},
		Reply{Round: math.MinInt64, Opinion: big}, Reply{Round: math.MaxInt64, Undecided: true},
		Decided{}, Decided{Val: "d"}, Decided{Val: big},
	} {
		consensustest.CheckWireRoundTrip(t, m)
	}
}
