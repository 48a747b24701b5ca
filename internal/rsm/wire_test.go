package rsm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
)

// uncoded is a message type with no wire codec.
type uncoded struct{ X int }

func (uncoded) Type() string { return "uncoded" }

// wireMessages lists one zero value of every RSM wire type.
func wireMessages() []consensus.Message {
	return []consensus.Message{
		ClientPropose{}, Redirect{}, Committed{}, Busy{},
		Query{}, QueryReply{}, SlotMsg{}, Learn{}, LearnReply{},
		Beat{}, SnapshotMsg{},
	}
}

func TestEveryMessageHasACodec(t *testing.T) {
	// One check over both lists: the RSM's tags must also stay clear of
	// the tags of the slot messages a SlotMsg nests.
	consensustest.CheckCodecs(t, append(wireMessages(), modpaxos.Descriptor().Messages...))
}

func TestWireRoundTrip(t *testing.T) {
	big := strings.Repeat("v", 1<<20)
	for _, m := range []consensus.Message{
		ClientPropose{}, ClientPropose{Client: -3, Seq: math.MaxUint64, Cmd: "set k v"}, ClientPropose{Client: 1, Seq: 1, Cmd: consensus.Value(big)},
		Redirect{}, Redirect{Leader: -1, Epoch: math.MinInt64}, Redirect{Leader: 4, Epoch: 9},
		Committed{}, Committed{Slot: -1, Seq: 5, Cmd: "c"}, Committed{Slot: math.MaxInt64, Seq: 1, Cmd: consensus.Value(big)},
		Busy{}, Busy{QueueLen: 1024}, Busy{QueueLen: -1},
		Query{}, Query{Key: "k", MinApplied: -1, ReqID: 77}, Query{Key: big},
		QueryReply{}, QueryReply{Key: "k", Value: "v", Found: true, Applied: 12, ReqID: 3}, QueryReply{Key: "k", Value: big},
		SlotMsg{}, SlotMsg{Slot: 5}, SlotMsg{Slot: -2, Inner: modpaxos.P1a{Bal: consensus.NoBallot}},
		SlotMsg{Slot: 1 << 40, Inner: modpaxos.P2a{Bal: 3, Val: consensus.Value(big)}},
		SlotMsg{Slot: 8, Inner: modpaxos.P1b{Bal: 4, ABal: consensus.NoBallot}},
		SlotMsg{Slot: 8, Inner: modpaxos.P2b{Bal: 4, Val: EncodeBatch([]Command{{Client: 1, Seq: 2, Op: "set a b"}})}},
		SlotMsg{Slot: 8, Inner: modpaxos.Decided{}},
		Learn{}, Learn{From: -1}, Learn{From: 1 << 50},
		LearnReply{}, LearnReply{Entries: []SlotValue{}}, LearnReply{Entries: []SlotValue{{}}},
		LearnReply{Entries: []SlotValue{{Slot: 3, Val: "a"}, {Slot: 4, Val: NoOp}, {Slot: 5, Val: consensus.Value(big)}}},
		Beat{}, Beat{Epoch: 3, MaxSeen: -1}, Beat{Clients: []consensus.ProcessID{}},
		Beat{Epoch: 1 << 40, MaxSeen: 9, Clients: []consensus.ProcessID{3, 1000, -1, 1 << 30}},
		SnapshotMsg{}, SnapshotMsg{Snap: Snapshot{Applied: 64, Sessions: map[int64]Session{}, State: []byte{}, HasState: true}},
		SnapshotMsg{Snap: Snapshot{
			Applied:  1 << 33,
			Sessions: map[int64]Session{-1: {Seq: 1, Slot: -1}, 1000: {Seq: math.MaxUint64, Slot: 63}, 2000: {}},
			State:    []byte(big),
			HasState: true,
		}},
	} {
		consensustest.CheckWireRoundTrip(t, m)
	}
}

// TestSlotMsgFallsBackWhole pins which SlotMsgs have no wire form — an
// inner type without a codec, and a SlotMsg inside a SlotMsg (refused in
// both directions, so hostile nesting cannot recurse the decoder) — and
// that there is nothing to fall back to: encoding one panics, naming the
// culprit.
func TestSlotMsgFallsBackWhole(t *testing.T) {
	for want, m := range map[string]SlotMsg{
		"no wire codec for rsm.uncoded": {Slot: 1, Inner: uncoded{X: 1}},
		"SlotMsg inside a SlotMsg":      {Slot: 1, Inner: SlotMsg{Slot: 2, Inner: modpaxos.P1a{Bal: 1}}},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
					t.Errorf("AppendMessage(%#v): recovered %q, want a panic mentioning %q", m, r, want)
				}
			}()
			consensus.AppendMessage(nil, m)
		}()
	}
	nested := consensus.AppendMessage(nil, SlotMsg{Slot: 2, Inner: modpaxos.P1a{Bal: 1}})
	hostile := append([]byte{tagSlotMsg, 2}, nested...)
	if m, err := consensus.DecodeMessage(hostile); err == nil {
		t.Errorf("nested SlotMsg decoded as %#v", m)
	}
}

func TestDecodeRefusesMalformed(t *testing.T) {
	for name, b := range map[string][]byte{
		"no tag":                    {},
		"unknown tag":               {200, 1, 2},
		"reserved tag":              {0},
		"truncated varint":          {tagLearn, 0x80},
		"overlong varint":           {tagLearn, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"trailing bytes":            {tagLearn, 2, 0},
		"string past the end":       {tagClientPropose, 2, 1, 9, 'x'},
		"entry count past the end":  {tagLearnReply, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"session count past end":    {tagSnapshotMsg, 2, 1, 0xff, 0xff, 0x03, 0, 0},
		"client count past the end": {tagBeat, 2, 2, 3, 6, 8},
		"client list truncated":     {tagBeat, 2, 2, 2, 6, 0x80},
		"bool out of range":         {tagQueryReply, 0, 0, 2, 0, 0},
		"inner message malformed":   {tagSlotMsg, 2, 1},
		"inner message unknown tag": {tagSlotMsg, 2, 200},
		// An empty KVStore image behind tag 27, which no message has: the
		// image has no tag, so no peer can send one and no SlotMsg can wrap
		// one.
		"KVStore image": {27, 0, 0},
		"wrapped image": {tagSlotMsg, 2, 27, 0, 0},
	} {
		if m, err := consensus.DecodeMessage(b); err == nil {
			t.Errorf("%s: decoded %v as %#v", name, b, m)
		}
	}
}

// TestSlotMsgTypeDoesNotAllocate pins the type switch: Type() is called at
// least twice per message on every backend, and for all five messages a slot
// instance sends it must answer "rsm-" + the inner type without building it.
// A sixth modpaxos message fails here until the switch names it; any other
// inner type still gets its name, by concatenation.
func TestSlotMsgTypeDoesNotAllocate(t *testing.T) {
	inners := modpaxos.Descriptor().Messages
	if len(inners) != 5 {
		t.Fatalf("modpaxos sends %d message types, SlotMsg.Type switches on 5", len(inners))
	}
	var sink string
	for _, inner := range inners {
		m := SlotMsg{Slot: 1, Inner: inner}
		if got, want := m.Type(), "rsm-"+inner.Type(); got != want {
			t.Errorf("SlotMsg{%T}.Type() = %q, want %q", inner, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { sink = m.Type() }); n != 0 {
			t.Errorf("SlotMsg{%T}.Type() allocates %v times per call", inner, n)
		}
	}
	_ = sink
	if got := (SlotMsg{}).Type(); got != "rsm-slot" {
		t.Errorf("SlotMsg{}.Type() = %q, want rsm-slot", got)
	}
	if got := (SlotMsg{Inner: uncoded{}}).Type(); got != "rsm-uncoded" {
		t.Errorf("SlotMsg{uncoded}.Type() = %q, want rsm-uncoded", got)
	}
}
