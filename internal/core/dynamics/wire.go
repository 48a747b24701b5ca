package dynamics

import (
	"encoding/binary"

	"repro/internal/core/consensus"
)

// Wire tags of the three messages every rule shares (range 64–71, see
// consensus.RegisterCodec). A new message needs a tag and a codec here, or
// TestEveryMessageHasACodec fails.
const (
	tagQuery byte = iota + 64
	tagReply
	tagDecided
)

func init() {
	consensus.RegisterCodec(tagQuery,
		func(b []byte, m Query) []byte { return binary.AppendVarint(b, m.Round) },
		func(r *consensus.WireReader) Query { return Query{Round: r.Varint()} })
	consensus.RegisterCodec(tagReply,
		func(b []byte, m Reply) []byte {
			b = consensus.AppendString(binary.AppendVarint(b, m.Round), m.Opinion)
			return consensus.AppendBool(b, m.Undecided)
		},
		func(r *consensus.WireReader) Reply {
			return Reply{Round: r.Varint(), Opinion: consensus.Value(r.Str()), Undecided: r.Bool()}
		})
	consensus.RegisterCodec(tagDecided,
		func(b []byte, m Decided) []byte { return consensus.AppendString(b, m.Val) },
		func(r *consensus.WireReader) Decided { return Decided{Val: consensus.Value(r.Str())} })
}
