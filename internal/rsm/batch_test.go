package rsm

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core/consensus"
)

func TestBatchRoundTrip(t *testing.T) {
	in := []Command{
		{Client: 7, Seq: 1, Op: "set a 1"},
		{Client: 9, Seq: 300, Op: ""},
		{Client: -1, Seq: 0, Op: "raw bytes with : and , and | inside"},
	}
	out := DecodeBatch(EncodeBatch(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestBatchSingleEntry(t *testing.T) {
	in := []Command{{Client: 3, Seq: 5, Op: "set k v"}}
	out := DecodeBatch(EncodeBatch(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

func TestDecodeNonBatchValueIsSessionless(t *testing.T) {
	out := DecodeBatch("set color blue")
	want := []Command{{Op: "set color blue"}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

// malformedBatches are values that carry the batch prefix, or look like the
// text form it replaced, but are not a well-formed batch.
var malformedBatches = []consensus.Value{
	"b2|",                      // no count
	"b2|\x80",                  // truncated count
	"b2|\x01",                  // one command declared, none present
	"b2|\xff\xff\xff\xff\x0f",  // count far past the end
	"b2|\x01\x02\x01",          // command without its length
	"b2|\x01\x02\x01\x09short", // op length past the end
	"b2|\x01\x02\x01\x02ok!",   // trailing byte
	"b2|\x00\x00",              // empty batch with a trailing byte
	"b2|\x02\x02\x01\x01a",     // second command missing
	"b2|\x01\x02\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",     // length overflows an int
	"b2|\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x01\x00", // client varint too long
	// The text form this encoding replaced: plain values now.
	"b1|garbage",
	"b1|1,2,999:short",
	"b1|1,2:missing-len",
	"b1|x,y,z:abc",
}

func TestDecodeMalformedFallsBack(t *testing.T) {
	for _, v := range malformedBatches {
		out := DecodeBatch(v)
		if len(out) != 1 || out[0] != (Command{Op: v}) {
			t.Fatalf("malformed %q decoded to %+v, want single sessionless fallback", v, out)
		}
	}
}

// TestBatchCodecAllocatesOnce pins both directions at one allocation: the
// exactly sized value, and the exactly sized command slice whose ops share
// the value's bytes — none when the slice is a replica's warm buffer.
func TestBatchCodecAllocatesOnce(t *testing.T) {
	cmds := make([]Command, 8)
	for i := range cmds {
		cmds[i] = Command{Client: int64(1000 + i), Seq: uint64(100 + i), Op: consensus.Value(strings.Repeat("x", 40*i))}
	}
	var v consensus.Value
	if n := testing.AllocsPerRun(100, func() { v = EncodeBatch(cmds) }); n != 1 {
		t.Errorf("EncodeBatch allocates %v times, want 1", n)
	}
	var out []Command
	if n := testing.AllocsPerRun(100, func() { out = DecodeBatch(v) }); n != 1 {
		t.Errorf("DecodeBatch allocates %v times, want 1", n)
	}
	if !reflect.DeepEqual(cmds, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", cmds, out)
	}
	buf := make([]Command, 0, len(cmds))
	if n := testing.AllocsPerRun(100, func() { buf = appendBatch(buf[:0], v) }); n != 0 {
		t.Errorf("decoding into a buffer that holds the batch allocates %v times, want 0", n)
	}
}

// FuzzDecodeBatch: decoding never panics; a value either is a well-formed
// batch — then it is exactly what EncodeBatch makes of its commands, whose
// ops are cut from the value — or decodes as one sessionless command
// holding all of it; appended to a buffer, it decodes the same behind what
// the buffer held.
func FuzzDecodeBatch(f *testing.F) {
	for i, v := range malformedBatches {
		f.Add(string(v), int64(i-3), uint64(i))
	}
	f.Add("set color blue", int64(7), uint64(1))
	f.Add("", int64(math.MinInt64), uint64(math.MaxUint64))
	f.Add(string(EncodeBatch(nil)), int64(0), uint64(0))
	f.Add(string(EncodeBatch([]Command{{Client: 7, Seq: 1, Op: "set a 1"}, {Client: -1, Op: "b2|"}})), int64(1000), uint64(300))
	f.Fuzz(func(t *testing.T, in string, client int64, seq uint64) {
		v := consensus.Value(in)
		cmds := []Command{{Client: client, Seq: seq, Op: v}, {Client: ^client, Seq: ^seq, Op: v[:len(v)/2]}}
		if got := DecodeBatch(EncodeBatch(cmds)); !reflect.DeepEqual(got, cmds) {
			t.Fatalf("round trip:\n in  %+v\n out %+v", cmds, got)
		}
		out := DecodeBatch(v)
		kept := Command{Client: client, Seq: seq, Op: "kept"}
		if got := appendBatch([]Command{kept}, v); got[0] != kept || !slices.Equal(got[1:], out) {
			t.Fatalf("%q appended to %+v is %+v, decodes alone as %+v", in, kept, got, out)
		}
		if len(out) == 1 && out[0] == (Command{Op: v}) {
			return // not a batch
		}
		total := 0
		for _, c := range out {
			total += len(c.Op)
		}
		if total > len(v) {
			t.Fatalf("%q: ops hold %d bytes, the value %d", in, total, len(v))
		}
		again := DecodeBatch(EncodeBatch(out))
		if len(again) != len(out) {
			t.Fatalf("%q: %d commands re-decode as %d", in, len(out), len(again))
		}
		for i := range out {
			if again[i] != out[i] {
				t.Fatalf("%q: command %d is %+v, re-decodes as %+v", in, i, out[i], again[i])
			}
		}
	})
}

func TestEncodeEmptyBatchIsNotNoOp(t *testing.T) {
	// An empty batch still encodes to a non-NoOp value (slots proposed with
	// it would apply zero commands, not be skipped as recovery NoOps).
	if v := EncodeBatch(nil); v == NoOp {
		t.Fatal("empty batch encoded as NoOp")
	}
	if out := DecodeBatch(EncodeBatch(nil)); len(out) != 0 {
		t.Fatalf("empty batch decoded to %+v", out)
	}
}
