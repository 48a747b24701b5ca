package live_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
	"repro/internal/rsm"
)

// The frame codec against the real serving-path messages: this package can
// import rsm, which package live cannot.

// gobSlotMsg has rsm.SlotMsg's shape but no wire codec, so it shows what the
// same payload costs in the gob-fallback frame.
type gobSlotMsg struct {
	Slot  int64
	Inner consensus.Message
}

func (gobSlotMsg) Type() string { return "test-gob-slot" }

func init() {
	rsm.RegisterMessages()
	gob.Register(gobSlotMsg{})
}

// batchP2a is the serving path's dominant message: a phase-2a for one slot
// carrying a full batch of eight client commands.
func batchP2a() modpaxos.P2a {
	cmds := make([]rsm.Command, 8)
	for i := range cmds {
		cmds[i] = rsm.Command{Client: int64(1000 + i), Seq: uint64(40 + i), Op: consensus.Value(fmt.Sprintf("set key%03d value%03d", i, i))}
	}
	return modpaxos.P2a{Bal: 5, Val: rsm.EncodeBatch(cmds)}
}

const tagGob = 0

// frameTag returns the tag byte of an encoded frame.
func frameTag(t testing.TB, frame []byte) byte {
	t.Helper()
	b := frame[4:]
	for i := 0; i < 2; i++ { // from, to
		_, k := binary.Varint(b)
		if k <= 0 {
			t.Fatalf("bad frame header % x", frame)
		}
		b = b[k:]
	}
	return b[0]
}

// TestFrameStreamRoundTrip runs a mixed sequence through one encoder and one
// decoder, as one connection would carry it, and pins which messages take
// the binary frame and which fall back to gob.
func TestFrameStreamRoundTrip(t *testing.T) {
	msgs := []struct {
		m      consensus.Message
		binary bool
	}{
		{rsm.SlotMsg{Slot: 3, Inner: batchP2a()}, true},
		{gobSlotMsg{Slot: 3, Inner: batchP2a()}, false},
		{rsm.ClientPropose{Client: 9, Seq: 1, Cmd: "set a b"}, true},
		{rsm.SlotMsg{Slot: 4, Inner: gobSlotMsg{Slot: 1}}, false}, // uncoded inner: the whole SlotMsg falls back
		{rsm.SlotMsg{Slot: 5, Inner: rsm.SlotMsg{Slot: 6, Inner: modpaxos.P1a{Bal: 2}}}, false},
		{gobSlotMsg{Slot: 7}, false}, // second use of the gob stream: no type descriptors this time
		{rsm.SnapshotMsg{Snap: rsm.Snapshot{Applied: 64, Sessions: map[int64]rsm.Session{7: {Seq: 2, Slot: 60}}, State: []byte("img"), HasState: true}}, true},
		{modpaxos.Decided{Val: "d"}, true},
	}
	var enc live.FrameEncoder
	var stream bytes.Buffer
	for i, c := range msgs {
		frame, err := enc.Encode(consensus.ProcessID(i), 2, c.m)
		if err != nil {
			t.Fatalf("encode %#v: %v", c.m, err)
		}
		if got := frameTag(t, frame) != tagGob; got != c.binary {
			t.Errorf("%#v: binary frame = %v, want %v", c.m, got, c.binary)
		}
		stream.Write(frame)
	}
	dec := live.NewFrameDecoder(&stream)
	for i, c := range msgs {
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
	fallback := valid(gobSlotMsg{Slot: 3, Inner: batchP2a()})
	f.Add(slot)
	f.Add(fallback)
	f.Add(append(append([]byte(nil), slot...), fallback...))
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
	f.Add([]byte{0, 0, 0, 5, 0, 2, 0, 0xde, 0xad})                         // corrupt gob blob
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

// frameBenchCases is the same payload in both frame kinds.
func frameBenchCases() []struct {
	name string
	m    consensus.Message
} {
	return []struct {
		name string
		m    consensus.Message
	}{
		{"binary", rsm.SlotMsg{Slot: 3, Inner: batchP2a()}},
		{"gob", gobSlotMsg{Slot: 3, Inner: batchP2a()}},
	}
}

// BenchmarkFrameEncode is one serving-path message through a link's
// encoder: the hand-written binary form against the gob fallback.
func BenchmarkFrameEncode(b *testing.B) {
	for _, c := range frameBenchCases() {
		m := c.m
		b.Run(c.name, func(b *testing.B) {
			var enc live.FrameEncoder
			frame, err := enc.Encode(0, 1, m) // the gob stream's type descriptors go out here
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkFrame, _ = enc.Encode(0, 1, m)
			}
		})
	}
}

// BenchmarkFrameDecode is the receiving half: b.N copies of one frame
// through a connection's decoder.
func BenchmarkFrameDecode(b *testing.B) {
	for _, c := range frameBenchCases() {
		m := c.m
		b.Run(c.name, func(b *testing.B) {
			var enc live.FrameEncoder
			first, err := enc.Encode(0, 1, m)
			if err != nil {
				b.Fatal(err)
			}
			src := &repeatReader{head: append([]byte(nil), first...)}
			steady, _ := enc.Encode(0, 1, m) // without the type descriptors
			src.rest = append([]byte(nil), steady...)
			dec := live.NewFrameDecoder(src)
			if _, _, _, err := dec.Next(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(src.rest)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := dec.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repeatReader yields head once, then rest for ever.
type repeatReader struct {
	head, rest []byte
	off        int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.head) > 0 {
		n := copy(p, r.head)
		r.head = r.head[n:]
		return n, nil
	}
	n := copy(p, r.rest[r.off:])
	r.off = (r.off + n) % len(r.rest)
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
