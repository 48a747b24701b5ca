package modpaxos

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

func TestEveryMessageHasACodec(t *testing.T) {
	consensustest.CheckCodecs(t, Descriptor().Messages)
}

func TestWireRoundTrip(t *testing.T) {
	big := consensus.Value(strings.Repeat("v", 1<<20))
	for _, m := range []consensus.Message{
		P1a{}, P1a{Bal: 7}, P1a{Bal: consensus.NoBallot}, P1a{Bal: math.MinInt64}, P1a{Bal: math.MaxInt64},
		P1b{}, P1b{Bal: 12, ABal: consensus.NoBallot}, P1b{Bal: -5, ABal: 3, AVal: "x"}, P1b{Bal: 1, ABal: 1, AVal: big},
		P2a{}, P2a{Bal: 9, Val: "b1|1,1,3:set"}, P2a{Bal: consensus.NoBallot, Val: big},
		P2b{}, P2b{Bal: 1 << 40, Val: "\x00\xff"},
		Decided{}, Decided{Val: "d"}, Decided{Val: big},
	} {
		consensustest.CheckWireRoundTrip(t, m)
	}
}
