package rsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core/consensus"
)

// filledKV applies one "set" per key, in the order given.
func filledKV(keys ...int) *KVStore {
	kv := NewKVStore()
	for _, k := range keys {
		kv.Apply(0, consensus.Value(fmt.Sprintf("set key%d value%d", k, k)))
	}
	return kv
}

// TestKVSnapshotIsCanonical: replicas build the same store along different
// histories — here the same keys inserted in opposite orders into maps of
// different growth — and must snapshot it to the same bytes. The store is
// larger than the size Restore's map starts at.
func TestKVSnapshotIsCanonical(t *testing.T) {
	keys := make([]int, maxKVHint+500)
	for i := range keys {
		keys[i] = i
	}
	up := filledKV(keys...)
	slices.Reverse(keys)
	down := filledKV(keys...)
	down.log = up.log // the log is ordered by construction; the data is what a map scrambles
	a, err := up.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := down.Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("equal stores filled in different orders snapshot to different bytes")
	}
	if again, _ := up.Snapshot(); !bytes.Equal(a, again) {
		t.Fatal("one store snapshots to different bytes twice")
	}
	back := NewKVStore()
	if err := back.Restore(a); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(back.data, up.data) || !slices.Equal(back.log, up.log) {
		t.Fatal("Restore(Snapshot()) is not the store")
	}
	empty := NewKVStore()
	img, _ := empty.Snapshot()
	if err := back.Restore(img); err != nil || back.data == nil || len(back.data) != 0 || len(back.log) != 0 {
		t.Fatalf("restoring an empty image: %v, left %d keys and %d log entries", err, len(back.data), len(back.log))
	}
	back.Apply(0, "set a b") // the restored map must be writable
}

// TestKVImageCountDoesNotSizeTheMap: the image's tag decodes from any frame,
// so a peer can claim a pair per two bytes; a million pairs that are all the
// empty key must cost about the bytes that carried them, not a table for a
// million keys.
func TestKVImageCountDoesNotSizeTheMap(t *testing.T) {
	const pairs = 1 << 20
	img := binary.AppendUvarint([]byte{tagKVImage}, pairs)
	img = append(img, make([]byte, 2*pairs+1)...) // the pairs, then an empty log
	kv := NewKVStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := kv.Restore(img)
	runtime.ReadMemStats(&after)
	if err != nil || len(kv.data) != 1 {
		t.Fatalf("Restore: %v, %d keys", err, len(kv.data))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("restoring %d empty pairs allocated %d bytes", pairs, got)
	}
}

// FuzzKVRestore feeds KVStore.Restore what a peer's SnapshotMsg.State may
// hold. Whatever arrives it returns a store or an error: no panic, no
// allocation sized by a count the bytes cannot back, and an error leaves
// the store as it was.
func FuzzKVRestore(f *testing.F) {
	whole, _ := filledKV(1, 2, 3).Snapshot()
	f.Add(whole)
	f.Add(whole[:len(whole)-2])                                                // truncated
	f.Add(append(append([]byte(nil), whole...), 0))                            // trailing byte
	f.Add([]byte{tagKVImage, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'k', 1, 'v', 0}) // 2^32 pairs in ten bytes
	f.Add([]byte{tagKVImage, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'c'})         // 2^32 log entries
	f.Add(consensus.AppendMessage(nil, Learn{From: 3}))                        // a whole message, not an image
	f.Add(consensus.AppendMessage(nil, SlotMsg{Slot: 1, Inner: kvImage{}}))    // an image, wrapped
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kv := filledKV(7)
		if err := kv.Restore(data); err != nil {
			if v, ok := kv.Get("key7"); !ok || v != "value7" || len(kv.log) != 1 {
				t.Fatalf("a refused image changed the store: %v", err)
			}
			return
		}
		// What was accepted is an image: it survives its own round trip.
		img, _ := kv.Snapshot()
		again := NewKVStore()
		if err := again.Restore(img); err != nil || !maps.Equal(again.data, kv.data) || !slices.Equal(again.log, kv.log) {
			t.Fatalf("accepted image does not round-trip: %v", err)
		}
		kv.Apply(0, "set a b")
	})
}
