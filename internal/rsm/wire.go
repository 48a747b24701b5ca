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
	minKVPair    = 2 // empty key, empty value
)

// maxKVHint caps the size readKVImage's map starts at. A map entry costs many
// times the two bytes an empty pair does, and the image comes from a peer's
// SnapshotMsg, so the claimed count alone must not size the table.
const maxKVHint = 1 << 12

func init() {
	consensus.RegisterCodec(tagClientPropose,
		func(b []byte, m ClientPropose) []byte {
			b = binary.AppendUvarint(binary.AppendVarint(b, m.Client), m.Seq)
			return consensus.AppendString(b, m.Cmd)
		},
		func(r *consensus.WireReader) ClientPropose {
			return ClientPropose{Client: r.Varint(), Seq: r.Uvarint(), Cmd: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagRedirect,
		func(b []byte, m Redirect) []byte {
			return binary.AppendVarint(binary.AppendVarint(b, int64(m.Leader)), m.Epoch)
		},
		func(r *consensus.WireReader) Redirect {
			return Redirect{Leader: consensus.ProcessID(r.Varint()), Epoch: r.Varint()}
		})
	consensus.RegisterCodec(tagCommitted,
		func(b []byte, m Committed) []byte {
			b = binary.AppendUvarint(binary.AppendVarint(b, m.Slot), m.Seq)
			return consensus.AppendString(b, m.Cmd)
		},
		func(r *consensus.WireReader) Committed {
			return Committed{Slot: r.Varint(), Seq: r.Uvarint(), Cmd: consensus.Value(r.Str())}
		})
	consensus.RegisterCodec(tagBusy,
		func(b []byte, m Busy) []byte { return binary.AppendVarint(b, int64(m.QueueLen)) },
		func(r *consensus.WireReader) Busy { return Busy{QueueLen: int(r.Varint())} })
	consensus.RegisterCodec(tagQuery,
		func(b []byte, m Query) []byte {
			b = binary.AppendVarint(consensus.AppendString(b, m.Key), m.MinApplied)
			return binary.AppendUvarint(b, m.ReqID)
		},
		func(r *consensus.WireReader) Query {
			return Query{Key: r.Str(), MinApplied: r.Varint(), ReqID: r.Uvarint()}
		})
	consensus.RegisterCodec(tagQueryReply,
		func(b []byte, m QueryReply) []byte {
			b = consensus.AppendString(consensus.AppendString(b, m.Key), m.Value)
			b = binary.AppendVarint(consensus.AppendBool(b, m.Found), m.Applied)
			return binary.AppendUvarint(b, m.ReqID)
		},
		func(r *consensus.WireReader) QueryReply {
			return QueryReply{Key: r.Str(), Value: r.Str(), Found: r.Bool(), Applied: r.Varint(), ReqID: r.Uvarint()}
		})
	consensus.RegisterCodec(tagSlotMsg, appendSlotMsg, readSlotMsg)
	consensus.RegisterCodec(tagLearn,
		func(b []byte, m Learn) []byte { return binary.AppendVarint(b, m.From) },
		func(r *consensus.WireReader) Learn { return Learn{From: r.Varint()} })
	consensus.RegisterCodec(tagLearnReply,
		func(b []byte, m LearnReply) []byte {
			b = binary.AppendUvarint(b, uint64(len(m.Entries)))
			for _, e := range m.Entries {
				b = consensus.AppendString(binary.AppendVarint(b, e.Slot), e.Val)
			}
			return b
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
		func(b []byte, m Beat) []byte {
			b = binary.AppendVarint(binary.AppendVarint(b, m.Epoch), m.MaxSeen)
			b = binary.AppendUvarint(b, uint64(len(m.Clients)))
			for _, c := range m.Clients {
				b = binary.AppendVarint(b, int64(c))
			}
			return b
		},
		func(r *consensus.WireReader) Beat {
			m := Beat{Epoch: r.Varint(), MaxSeen: r.Varint()}
			if n := r.Count(1); n > 0 {
				m.Clients = make([]consensus.ProcessID, n)
				for i := range m.Clients {
					m.Clients[i] = consensus.ProcessID(r.Varint())
				}
			}
			return m
		})
	consensus.RegisterCodec(tagSnapshotMsg,
		func(b []byte, m SnapshotMsg) []byte { return appendSnapshot(b, m.Snap) },
		func(r *consensus.WireReader) SnapshotMsg { return SnapshotMsg{Snap: readSnapshot(r)} })
}

// appendSlotMsg writes `slot | inner tag | inner body`, the inner message
// through the same registry; a nil Inner is an empty tail. An inner type
// without a codec panics there. So does a SlotMsg inside a SlotMsg: no slot
// instance sends one, and the decoder's nesting bound would refuse it.
func appendSlotMsg(b []byte, m SlotMsg) []byte {
	b = binary.AppendVarint(b, m.Slot)
	if m.Inner == nil {
		return b
	}
	if _, nested := m.Inner.(SlotMsg); nested {
		panic("rsm: a SlotMsg inside a SlotMsg has no wire form")
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
// snapshots encode to equal bytes. The table's presence is explicit: a nil
// map comes back nil and an empty one empty.
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

// appendKVImage writes `pairs | (key | value)… | entries | command…`, the
// pairs in key order.
func appendKVImage(b []byte, img kvImage) []byte {
	b = binary.AppendUvarint(b, uint64(len(img.data)))
	for _, k := range slices.Sorted(maps.Keys(img.data)) {
		b = consensus.AppendString(consensus.AppendString(b, k), img.data[k])
	}
	b = binary.AppendUvarint(b, uint64(len(img.log)))
	for _, cmd := range img.log {
		b = consensus.AppendString(b, cmd)
	}
	return b
}

func readKVImage(r *consensus.WireReader) kvImage {
	n := r.Count(minKVPair)
	img := kvImage{data: make(map[string]string, min(n, maxKVHint))}
	for i := 0; i < n; i++ {
		k := r.Str()
		img.data[k] = r.Str()
	}
	if n = r.Count(1); n > 0 {
		img.log = make([]consensus.Value, n)
		for i := range img.log {
			img.log[i] = consensus.Value(r.Str())
		}
	}
	return img
}
