package bconsensus

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
		Wab{}, Wab{LC: 4, Round: 2, Est: "x"}, Wab{LC: math.MaxUint64, Round: math.MinInt64, Est: big},
		First{}, First{LC: 1, Round: math.MaxInt64, Est: "\x00\xff"}, First{LC: math.MaxUint64, Round: -1, Est: big},
		Second{}, Second{LC: 5, Round: 3, Est: "e", HasV: false, V: ""}, Second{LC: 5, Round: 3, Est: "e", HasV: true, V: ""},
		Second{LC: 5, Round: 3, Est: "e", HasV: true, V: "v"}, // Est and V must not swap
		Second{LC: math.MaxUint64, Round: math.MinInt64, Est: big, HasV: true, V: big},
		Second{HasV: false, V: "stale"}, // meaningless without HasV, carried all the same
		Decided{}, Decided{Val: "d"}, Decided{Val: big},
	} {
		consensustest.CheckWireRoundTrip(t, m)
	}
}
