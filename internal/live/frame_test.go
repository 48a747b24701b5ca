package live_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core/bconsensus"
	"repro/internal/core/consensus"
	"repro/internal/core/dynamics"
	"repro/internal/core/modpaxos"
	"repro/internal/core/roundbased"
	"repro/internal/live"
	"repro/internal/rsm"
)

// The frame codec against the real serving-path messages: this package can
// import rsm, which package live cannot.

// uncodedSlotMsg has rsm.SlotMsg's shape but no wire codec.
type uncodedSlotMsg struct {
	Slot  int64
	Inner consensus.Message
}

func (uncodedSlotMsg) Type() string { return "test-uncoded-slot" }

// batchP2a is the serving path's dominant message: a phase-2a for one slot
// carrying a full batch of eight client commands.
func batchP2a() modpaxos.P2a {
	cmds := make([]rsm.Command, 8)
	for i := range cmds {
		cmds[i] = rsm.Command{Client: int64(1000 + i), Seq: uint64(40 + i), Op: consensus.Value(fmt.Sprintf("set key%03d value%03d", i, i))}
	}
	return modpaxos.P2a{Bal: 5, Val: rsm.EncodeBatch(cmds)}
}

// TestFrameStreamRoundTrip runs a mixed sequence through one encoder and one
// decoder, as one connection would carry it. A message with no wire form —
// an uncoded type, an uncoded inner, a SlotMsg in a SlotMsg — makes encode
// panic naming it, and leaves the encoder usable for the next message.
func TestFrameStreamRoundTrip(t *testing.T) {
	msgs := []struct {
		m      consensus.Message
		panics string // what encode's panic must mention; "" when m has a wire form
	}{
		{m: rsm.SlotMsg{Slot: 3, Inner: batchP2a()}},
		{m: uncodedSlotMsg{Slot: 3, Inner: batchP2a()}, panics: "live_test.uncodedSlotMsg"},
		{m: rsm.ClientPropose{Client: 9, Seq: 1, Cmd: "set a b"}},
		{m: rsm.SlotMsg{Slot: 4, Inner: uncodedSlotMsg{Slot: 1}}, panics: "live_test.uncodedSlotMsg"},
		{m: rsm.SlotMsg{Slot: 5, Inner: rsm.SlotMsg{Slot: 6, Inner: modpaxos.P1a{Bal: 2}}}, panics: "SlotMsg inside a SlotMsg"},
		{m: rsm.SnapshotMsg{Snap: rsm.Snapshot{Applied: 64, Sessions: map[int64]rsm.Session{7: {Seq: 2, Slot: 60}}, State: []byte("img"), HasState: true}}},
		{m: modpaxos.Decided{Val: "d"}},
		{m: roundbased.Estimate{Round: 2, Est: "e", TSRound: 1}},
		{m: bconsensus.Second{LC: 9, Round: 1, Est: "e", HasV: true, V: "v"}},
		{m: dynamics.Reply{Round: 4, Opinion: "o", Undecided: true}},
	}
	var enc live.FrameEncoder
	var stream bytes.Buffer
	for i, c := range msgs {
		frame, err := encodeRecovering(&enc, consensus.ProcessID(i), 2, c.m)
		switch {
		case c.panics != "":
			if !strings.Contains(fmt.Sprint(err), c.panics) {
				t.Errorf("encode %#v: %v, want a panic mentioning %q", c.m, err, c.panics)
			}
		case err != nil:
			t.Fatalf("encode %#v: %v", c.m, err)
		}
		stream.Write(frame)
	}
	dec := live.NewFrameDecoder(&stream)
	for i, c := range msgs {
		if c.panics != "" {
			continue
		}
		from, to, m, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if from != consensus.ProcessID(i) || to != 2 || !reflect.DeepEqual(m, c.m) {
			t.Errorf("frame %d: got %d→%d %#v, want %d→2 %#v", i, from, to, m, i, c.m)
		}
	}
	if _, _, m, err := dec.Next(); err == nil {
		t.Errorf("decoded %#v past the end of the stream", m)
	}
}

// encodeRecovering is enc.Encode with a panic turned into its error.
func encodeRecovering(enc *live.FrameEncoder, from, to consensus.ProcessID, m consensus.Message) (frame []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			frame, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return enc.Encode(from, to, m)
}

// gobFrame is a frame of the wire format before this one, captured from
// that encoder: tag 0, then a per-connection gob stream's type descriptors
// and a test message wrapping batchP2a. A peer still speaking it must be
// refused, not decoded.
const gobFrame = "\x00\x00\x01h\x00\x02\x00P\x10\x00#repro/internal/live_test.gobSlotMsg\x7f\x03\x01\x01\ngobSlotMsg\x01\xff\x80\x00\x01\x02\x01\x04Slot\x01\x04\x00\x01\x05Inner\x01\x10\x00\x00\x00\xfe\x01\x11\xff\x80E\x01\x06\x01 repro/internal/core/modpaxos.P2a\xff\x81\x03\x01\x01\x03P2a\x01\xff\x82\x00\x01\x02\x01\x03Bal\x01\x04\x00\x01\x03Val\x01\f\x00\x00\x00\xff\xc7\xff\x82\xff\xc2\x01\n\x01\xff\xbcb2|\b\xd0\x0f(\x13set key000 value000\xd2\x0f)\x13set key001 value001\xd4\x0f*\x13set key002 value002\xd6\x0f+\x13set key003 value003\xd8\x0f,\x13set key004 value004\xda\x0f-\x13set key005 value005\xdc\x0f.\x13set key006 value006\xde\x0f/\x13set key007 value007\x00\x00"

// TestTagZeroFrameIsRefused: the old format's gob frame, whole and well
// formed, is a malformed frame now, and so is anything else under tag 0.
func TestTagZeroFrameIsRefused(t *testing.T) {
	for name, frame := range map[string]string{
		"captured gob frame": gobFrame,
		"tag 0 alone":        "\x00\x00\x00\x03\x00\x02\x00",
	} {
		_, _, m, err := live.NewFrameDecoder(strings.NewReader(frame)).Next()
		if !errors.Is(err, live.ErrBadFrame) {
			t.Errorf("%s: decoded as %#v, %v; want the malformed-frame error", name, m, err)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to a connection's decoder — what a
// hostile peer can do. Whatever arrives, the decoder must return messages or
// an error: no panic, no nil message, no allocation sized by a declared
// length (the oversize seeds would exhaust memory long before the fuzzer
// found anything else).
func FuzzDecodeFrame(f *testing.F) {
	var enc live.FrameEncoder
	valid := func(m consensus.Message) []byte {
		frame, err := enc.Encode(0, 1, m)
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte(nil), frame...)
	}
	slot := valid(rsm.SlotMsg{Slot: 3, Inner: batchP2a()})
	f.Add(slot)
	f.Add([]byte(gobFrame)) // must be an error now, as TestTagZeroFrameIsRefused holds
	f.Add(append(append([]byte(nil), slot...), gobFrame...))
	f.Add(valid(rsm.LearnReply{Entries: []rsm.SlotValue{{Slot: 1, Val: "a"}, {Slot: 2}}}))
	f.Add(valid(rsm.SnapshotMsg{Snap: rsm.Snapshot{Applied: 4, Sessions: map[int64]rsm.Session{1: {Seq: 1}}, HasState: true}}))
	f.Add(slot[:len(slot)-3])                                              // body shorter than its length
	f.Add([]byte{0, 0, 0, 2, 0x80, 0x80})                                  // truncated varint in the header
	f.Add([]byte{0, 0, 0, 3, 0, 2, 0x16})                                  // SlotMsg tag, no body
	f.Add([]byte{0, 0, 0, 5, 0, 2, 0x17, 0x80, 0x80})                      // truncated varint in a body
	f.Add(binary.BigEndian.AppendUint32(nil, live.MaxFrame+1))             // oversize length
	f.Add(append(binary.BigEndian.AppendUint32(nil, live.MaxFrame), 0, 2)) // maximal length, two bytes of it
	f.Add([]byte{0, 0, 0, 3, 0, 2, 250})                                   // unknown tag
	f.Add([]byte{0, 0, 0, 9, 0, 2, 0x16, 2, 0x16, 4, 0x16, 6, 1})          // SlotMsg in SlotMsg in SlotMsg
	f.Add([]byte{0, 0, 0, 7, 0, 2, 0x18, 0xff, 0xff, 0xff, 0x7f})          // LearnReply claiming 2^28 entries
	f.Add([]byte{0, 0, 0, 5, 0, 2, 0, 0xde, 0xad})                         // tag 0, not a gob blob either
	f.Add(valid(bconsensus.Second{LC: 1 << 63, Round: -1, Est: "e", HasV: true, V: "v"}))
	// rsm's KVStore image behind tag 0x1b, which no message has: a real
	// one, then 16 pairs that are all the empty key. The image has no tag
	// of its own, so both frames are refused.
	f.Add([]byte{0, 0, 0, 15, 0, 2, 0x1b, 2, 1, 'a', 1, 'b', 0, 0, 1, 3, 's', 'e', 't'})
	f.Add(append([]byte{0, 0, 0, 37, 0, 2, 0x1b, 16}, make([]byte, 33)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := live.NewFrameDecoder(bytes.NewReader(data))
		for {
			_, _, m, err := dec.Next()
			if err != nil {
				return
			}
			if m == nil {
				t.Fatal("decoder returned a nil message without an error")
			}
			_ = m.Type()
		}
	})
}

var sinkFrame []byte

// BenchmarkFrameEncode is the serving path's dominant message through a
// link's encoder.
func BenchmarkFrameEncode(b *testing.B) {
	var m consensus.Message = rsm.SlotMsg{Slot: 3, Inner: batchP2a()}
	var enc live.FrameEncoder
	frame, err := enc.Encode(0, 1, m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFrame, _ = enc.Encode(0, 1, m)
	}
}

// BenchmarkFrameDecode is the receiving half: b.N copies of that frame
// through a connection's decoder.
func BenchmarkFrameDecode(b *testing.B) {
	var enc live.FrameEncoder
	frame, err := enc.Encode(0, 1, rsm.SlotMsg{Slot: 3, Inner: batchP2a()})
	if err != nil {
		b.Fatal(err)
	}
	dec := live.NewFrameDecoder(&repeatReader{frame: frame})
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatReader yields frame for ever.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// benchTransport is two registered ids over loopback TCP; process 1 echoes
// until streaming is set, then counts.
func benchTransport(b *testing.B) (tr *live.TCPTransport, pong chan struct{}, got *atomic.Int64, streaming *atomic.Bool) {
	tr, err := live.NewTCPTransport([]consensus.ProcessID{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = tr.Close() })
	pong = make(chan struct{}, 1) // one ping is in flight at a time
	got, streaming = new(atomic.Int64), new(atomic.Bool)
	tr.Register(0, func(consensus.ProcessID, consensus.Message) { pong <- struct{}{} })
	tr.Register(1, func(from consensus.ProcessID, m consensus.Message) {
		if streaming.Load() {
			got.Add(1)
			return
		}
		tr.Send(1, from, m)
	})
	return tr, pong, got, streaming
}

// BenchmarkTCPRoundTrip is a ping-pong of one serving-path message: two
// hops, each a lone send that the flush rule must not delay.
func BenchmarkTCPRoundTrip(b *testing.B) {
	tr, pong, _, _ := benchTransport(b)
	var m consensus.Message = rsm.SlotMsg{Slot: 3, Inner: batchP2a()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, m)
		<-pong
	}
}

// BenchmarkTCPOneWay streams b.N messages down one link and waits for the
// last to be handled: the coalesced-flush throughput.
func BenchmarkTCPOneWay(b *testing.B) {
	tr, _, got, streaming := benchTransport(b)
	streaming.Store(true)
	var m consensus.Message = rsm.SlotMsg{Slot: 3, Inner: batchP2a()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, m)
	}
	for got.Load() < int64(b.N) {
		runtime.Gosched()
	}
}
