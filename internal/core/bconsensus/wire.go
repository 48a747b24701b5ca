package bconsensus

import (
	"encoding/binary"

	"repro/internal/core/consensus"
)

// Wire tags of the four protocol messages (range 56–63, see
// consensus.RegisterCodec). A new message needs a tag and a codec here, or
// TestEveryMessageHasACodec fails.
const (
	tagWab byte = iota + 56
	tagFirst
	tagSecond
	tagDecided
)

// appendVote writes the `LC | round | est` head the three stage messages
// share; readVote reads it back.
func appendVote(b []byte, lc uint64, round int64, est consensus.Value) []byte {
	return consensus.AppendString(binary.AppendVarint(binary.AppendUvarint(b, lc), round), est)
}

func readVote(r *consensus.WireReader) (lc uint64, round int64, est consensus.Value) {
	return r.Uvarint(), r.Varint(), consensus.Value(r.Str())
}

func init() {
	consensus.RegisterCodec(tagWab,
		func(b []byte, m Wab) []byte { return appendVote(b, m.LC, m.Round, m.Est) },
		func(r *consensus.WireReader) Wab {
			lc, round, est := readVote(r)
			return Wab{LC: lc, Round: round, Est: est}
		})
	consensus.RegisterCodec(tagFirst,
		func(b []byte, m First) []byte { return appendVote(b, m.LC, m.Round, m.Est) },
		func(r *consensus.WireReader) First {
			lc, round, est := readVote(r)
			return First{LC: lc, Round: round, Est: est}
		})
	consensus.RegisterCodec(tagSecond,
		func(b []byte, m Second) []byte {
			b = consensus.AppendBool(appendVote(b, m.LC, m.Round, m.Est), m.HasV)
			return consensus.AppendString(b, m.V)
		},
		func(r *consensus.WireReader) Second {
			lc, round, est := readVote(r)
			return Second{LC: lc, Round: round, Est: est, HasV: r.Bool(), V: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagDecided,
		func(b []byte, m Decided) []byte { return consensus.AppendString(b, m.Val) },
		func(r *consensus.WireReader) Decided { return Decided{Val: consensus.Value(r.Str())} })
}
