package rsm

import (
	"encoding/binary"
	"maps"
	"slices"

	"repro/internal/core/consensus"
)

// Wire tags of the eleven RSM messages (range 16–47, see
// consensus.RegisterCodec). A new message needs a tag and a codec here, or
// TestEveryMessageHasACodec fails.
const (
	tagClientPropose byte = iota + 16
	tagRedirect
	tagCommitted
	tagBusy
	tagQuery
	tagQueryReply
	tagSlotMsg
	tagLearn
	tagLearnReply
	tagBeat
	tagSnapshotMsg
)

// Minimum encoded sizes, for WireReader.Count.
const (
	minSlotValue = 2 // slot varint, empty value
	minSession   = 3 // client, seq and slot varints
)

func init() {
	consensus.RegisterCodec(tagClientPropose,
		func(b []byte, m ClientPropose) ([]byte, bool) {
			b = binary.AppendUvarint(binary.AppendVarint(b, m.Client), m.Seq)
			return consensus.AppendString(b, m.Cmd), true
		},
		func(r *consensus.WireReader) ClientPropose {
			return ClientPropose{Client: r.Varint(), Seq: r.Uvarint(), Cmd: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagRedirect,
		func(b []byte, m Redirect) ([]byte, bool) {
			return binary.AppendVarint(binary.AppendVarint(b, int64(m.Leader)), m.Epoch), true
		},
		func(r *consensus.WireReader) Redirect {
			return Redirect{Leader: consensus.ProcessID(r.Varint()), Epoch: r.Varint()}
		})
	consensus.RegisterCodec(tagCommitted,
		func(b []byte, m Committed) ([]byte, bool) {
			b = binary.AppendUvarint(binary.AppendVarint(b, m.Slot), m.Seq)
			return consensus.AppendString(b, m.Cmd), true
		},
		func(r *consensus.WireReader) Committed {
			return Committed{Slot: r.Varint(), Seq: r.Uvarint(), Cmd: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagBusy,
		func(b []byte, m Busy) ([]byte, bool) { return binary.AppendVarint(b, int64(m.QueueLen)), true },
		func(r *consensus.WireReader) Busy { return Busy{QueueLen: int(r.Varint())} })
	consensus.RegisterCodec(tagQuery,
		func(b []byte, m Query) ([]byte, bool) {
			b = binary.AppendVarint(consensus.AppendString(b, m.Key), m.MinApplied)
			return binary.AppendUvarint(b, m.ReqID), true
		},
		func(r *consensus.WireReader) Query {
			return Query{Key: r.Str(), MinApplied: r.Varint(), ReqID: r.Uvarint()}
		})
	consensus.RegisterCodec(tagQueryReply,
		func(b []byte, m QueryReply) ([]byte, bool) {
			b = consensus.AppendString(consensus.AppendString(b, m.Key), m.Value)
			b = binary.AppendVarint(consensus.AppendBool(b, m.Found), m.Applied)
			return binary.AppendUvarint(b, m.ReqID), true
		},
		func(r *consensus.WireReader) QueryReply {
			return QueryReply{Key: r.Str(), Value: r.Str(), Found: r.Bool(), Applied: r.Varint(), ReqID: r.Uvarint()}
		})
	consensus.RegisterCodec(tagSlotMsg, appendSlotMsg, readSlotMsg)
	consensus.RegisterCodec(tagLearn,
		func(b []byte, m Learn) ([]byte, bool) { return binary.AppendVarint(b, m.From), true },
		func(r *consensus.WireReader) Learn { return Learn{From: r.Varint()} })
	consensus.RegisterCodec(tagLearnReply,
		func(b []byte, m LearnReply) ([]byte, bool) {
			b = binary.AppendUvarint(b, uint64(len(m.Entries)))
			for _, e := range m.Entries {
				b = consensus.AppendString(binary.AppendVarint(b, e.Slot), e.Val)
			}
			return b, true
		},
		func(r *consensus.WireReader) LearnReply {
			var m LearnReply
			if n := r.Count(minSlotValue); n > 0 {
				m.Entries = make([]SlotValue, n)
				for i := range m.Entries {
					m.Entries[i] = SlotValue{Slot: r.Varint(), Val: consensus.Value(r.Str())}
				}
			}
			return m
		})
	consensus.RegisterCodec(tagBeat,
		func(b []byte, m Beat) ([]byte, bool) {
			return binary.AppendVarint(binary.AppendVarint(b, m.Epoch), m.MaxSeen), true
		},
		func(r *consensus.WireReader) Beat { return Beat{Epoch: r.Varint(), MaxSeen: r.Varint()} })
	consensus.RegisterCodec(tagSnapshotMsg,
		func(b []byte, m SnapshotMsg) ([]byte, bool) { return appendSnapshot(b, m.Snap), true },
		func(r *consensus.WireReader) SnapshotMsg { return SnapshotMsg{Snap: readSnapshot(r)} })
}

// appendSlotMsg writes `slot | inner tag | inner body`, the inner message
// through the same registry; a nil Inner is an empty tail. An inner type
// without a codec sends the whole SlotMsg down the gob fallback, and so
// does a SlotMsg inside a SlotMsg: no slot instance sends one, and the
// decoder's nesting bound would refuse it.
func appendSlotMsg(b []byte, m SlotMsg) ([]byte, bool) {
	b = binary.AppendVarint(b, m.Slot)
	if m.Inner == nil {
		return b, true
	}
	if _, nested := m.Inner.(SlotMsg); nested {
		return b, false
	}
	return consensus.AppendMessage(b, m.Inner)
}

func readSlotMsg(r *consensus.WireReader) SlotMsg {
	m := SlotMsg{Slot: r.Varint()}
	if r.Len() > 0 {
		m.Inner = r.Message()
	}
	return m
}

// appendSnapshot writes the session table in client order, so equal
// snapshots encode to equal bytes. The table's presence is explicit: like
// gob, the codec hands back a nil map as nil and an empty one as empty.
func appendSnapshot(b []byte, s Snapshot) []byte {
	return appendSnapshotOrdered(b, s, slices.Sorted(maps.Keys(s.Sessions)))
}

// appendSnapshotOrdered is appendSnapshot for a caller that already holds
// s.Sessions' clients in ascending order.
func appendSnapshotOrdered(b []byte, s Snapshot, clients []int64) []byte {
	b = binary.AppendVarint(b, s.Applied)
	b = consensus.AppendBool(b, s.Sessions != nil)
	if s.Sessions != nil {
		b = binary.AppendUvarint(b, uint64(len(clients)))
		for _, c := range clients {
			sess := s.Sessions[c]
			b = binary.AppendVarint(binary.AppendUvarint(binary.AppendVarint(b, c), sess.Seq), sess.Slot)
		}
	}
	b = consensus.AppendString(b, s.State)
	return consensus.AppendBool(b, s.HasState)
}

func readSnapshot(r *consensus.WireReader) Snapshot {
	s := Snapshot{Applied: r.Varint()}
	if r.Bool() {
		n := r.Count(minSession)
		s.Sessions = make(map[int64]Session, n)
		for i := 0; i < n; i++ {
			c := r.Varint()
			s.Sessions[c] = Session{Seq: r.Uvarint(), Slot: r.Varint()}
		}
	}
	s.State = r.Bytes()
	s.HasState = r.Bool()
	return s
}
