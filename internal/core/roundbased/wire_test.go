package roundbased

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
		InRound{}, InRound{Round: 7}, InRound{Round: math.MinInt64}, InRound{Round: math.MaxInt64},
		Estimate{}, Estimate{Round: 3, Est: "x", TSRound: -1}, Estimate{Round: math.MaxInt64, Est: big, TSRound: math.MinInt64},
		Estimate{Round: 1, TSRound: 2}, // the two rounds must not swap
		Coord{}, Coord{Round: 9, V: "\x00\xff"}, Coord{Round: math.MinInt64, V: big},
		Ack{}, Ack{Round: 1 << 40}, Ack{Round: math.MinInt64}, Ack{Round: math.MaxInt64},
		Decided{}, Decided{Val: "d"}, Decided{Val: big},
	} {
		consensustest.CheckWireRoundTrip(t, m)
	}
}
