package modpaxos

import (
	"encoding/binary"

	"repro/internal/core/consensus"
)

// Wire tags of the five protocol messages (range 1–15, see
// consensus.RegisterCodec). A new message needs a tag and a codec here, or
// TestEveryMessageHasACodec fails.
const (
	tagP1a byte = iota + 1
	tagP1b
	tagP2a
	tagP2b
	tagDecided
)

func appendBallot(b []byte, bal consensus.Ballot) []byte {
	return binary.AppendVarint(b, int64(bal))
}

func readBallot(r *consensus.WireReader) consensus.Ballot {
	return consensus.Ballot(r.Varint())
}

func init() {
	consensus.RegisterCodec(tagP1a,
		func(b []byte, m P1a) []byte { return appendBallot(b, m.Bal) },
		func(r *consensus.WireReader) P1a { return P1a{Bal: readBallot(r)} })
	consensus.RegisterCodec(tagP1b,
		func(b []byte, m P1b) []byte {
			b = appendBallot(appendBallot(b, m.Bal), m.ABal)
			return consensus.AppendString(b, m.AVal)
		},
		func(r *consensus.WireReader) P1b {
			return P1b{Bal: readBallot(r), ABal: readBallot(r), AVal: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagP2a,
		func(b []byte, m P2a) []byte {
			return consensus.AppendString(appendBallot(b, m.Bal), m.Val)
		},
		func(r *consensus.WireReader) P2a {
			return P2a{Bal: readBallot(r), Val: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagP2b,
		func(b []byte, m P2b) []byte {
			return consensus.AppendString(appendBallot(b, m.Bal), m.Val)
		},
		func(r *consensus.WireReader) P2b {
			return P2b{Bal: readBallot(r), Val: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagDecided,
		func(b []byte, m Decided) []byte { return consensus.AppendString(b, m.Val) },
		func(r *consensus.WireReader) Decided { return Decided{Val: consensus.Value(r.Str())} })
}
