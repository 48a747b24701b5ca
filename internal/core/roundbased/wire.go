package roundbased

import (
	"encoding/binary"

	"repro/internal/core/consensus"
)

// Wire tags of the five protocol messages (range 48–55, see
// consensus.RegisterCodec). A new message needs a tag and a codec here, or
// TestEveryMessageHasACodec fails.
const (
	tagInRound byte = iota + 48
	tagEstimate
	tagCoord
	tagAck
	tagDecided
)

func init() {
	consensus.RegisterCodec(tagInRound,
		func(b []byte, m InRound) []byte { return binary.AppendVarint(b, m.Round) },
		func(r *consensus.WireReader) InRound { return InRound{Round: r.Varint()} })
	consensus.RegisterCodec(tagEstimate,
		func(b []byte, m Estimate) []byte {
			b = consensus.AppendString(binary.AppendVarint(b, m.Round), m.Est)
			return binary.AppendVarint(b, m.TSRound)
		},
		func(r *consensus.WireReader) Estimate {
			return Estimate{Round: r.Varint(), Est: consensus.Value(r.Str()), TSRound: r.Varint()}
		})
	consensus.RegisterCodec(tagCoord,
		func(b []byte, m Coord) []byte {
			return consensus.AppendString(binary.AppendVarint(b, m.Round), m.V)
		},
		func(r *consensus.WireReader) Coord {
			return Coord{Round: r.Varint(), V: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagAck,
		func(b []byte, m Ack) []byte { return binary.AppendVarint(b, m.Round) },
		func(r *consensus.WireReader) Ack { return Ack{Round: r.Varint()} })
	consensus.RegisterCodec(tagDecided,
		func(b []byte, m Decided) []byte { return consensus.AppendString(b, m.Val) },
		func(r *consensus.WireReader) Decided { return Decided{Val: consensus.Value(r.Str())} })
}
