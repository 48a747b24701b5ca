package rsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
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

// TestKVImageCountDoesNotSizeTheMap: a peer's SnapshotMsg carries the image,
// so a peer can claim a pair per two bytes; a million pairs that are all the
// empty key must cost about the bytes that carried them, not a table for a
// million keys.
func TestKVImageCountDoesNotSizeTheMap(t *testing.T) {
	const pairs = 1 << 20
	img := binary.AppendUvarint(nil, pairs)
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
	f.Add(whole[:len(whole)-2])                                    // truncated
	f.Add(append(append([]byte(nil), whole...), 0))                // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'k', 1, 'v', 0}) // 2^32 pairs in ten bytes
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'c'})         // 2^32 log entries
	f.Add(consensus.AppendMessage(nil, Learn{From: 3}))            // a whole message, not an image
	f.Add(append([]byte{27}, whole...))                            // an image behind tag 27, which no message has
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

// TestSnapshotInstallSettlesLeaderBatches: a leader whose followers compacted
// past it installs their snapshot over three of its own slots — slot 0 in
// flight, slot 1 decided above that gap but not applied, slot 2 in flight
// with a command the group never applied (its slot closed as a NoOp). The
// commands the snapshot's session table shows applied are acknowledged, the
// other is proposed again in a fresh slot with its waiter, and no
// bookkeeping for a compacted slot is left behind. Installing used to drop
// the in-flight slots' batches unacknowledged and leave slot 1's behind.
func TestSnapshotInstallSettlesLeaderBatches(t *testing.T) {
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: 10 * time.Millisecond}, MaxBatch: 1, MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := consensustest.New(Leader(), 3)
	r := factory(Leader(), 3, "").(*Replica)
	r.Init(env)
	cmd := func(c int64) consensus.Value { return consensus.Value(fmt.Sprintf("set k%d 1", c)) }
	for c := int64(10); c <= 12; c++ {
		r.HandleMessage(consensus.ProcessID(c), ClientPropose{Client: c, Seq: 1, Cmd: cmd(c)})
	}
	if r.InFlight() != 3 {
		t.Fatalf("%d slots in flight, want 3", r.InFlight())
	}
	r.HandleMessage(1, SlotMsg{Slot: 1, Inner: modpaxos.Decided{Val: r.pending[1]}})
	if r.Applied() != 0 || r.InFlight() != 2 {
		t.Fatalf("applied %d with %d in flight, want slot 1 decided above the gap", r.Applied(), r.InFlight())
	}

	env.ClearOutbox()
	r.HandleMessage(1, SnapshotMsg{Snap: Snapshot{Applied: 3, Sessions: map[int64]Session{
		10: {Seq: 1, Slot: 0}, 11: {Seq: 1, Slot: 1},
	}}})
	for c, slot := range map[int64]int64{10: 0, 11: 1} {
		want := []consensus.Message{Committed{Slot: slot, Seq: 1, Cmd: cmd(c)}}
		if got := env.SentTo(consensus.ProcessID(c)); !slices.Equal(got, want) {
			t.Errorf("client %d was sent %v, want %v", c, got, want)
		}
	}
	if got := env.SentTo(12); len(got) != 0 {
		t.Errorf("client 12, whose command the snapshot did not apply, was sent %v", got)
	}
	if r.Applied() != 3 || r.InFlight() != 1 || !slices.Equal(slices.Sorted(maps.Keys(r.proposed)), []int64{3}) {
		t.Fatalf("applied %d, %d in flight, batches held for slots %v; want 3, 1, [3]",
			r.Applied(), r.InFlight(), slices.Sorted(maps.Keys(r.proposed)))
	}
	if b := r.proposed[3]; len(b) != 1 || b[0].cmd.Client != 12 || !slices.Equal(b[0].waiters, []consensus.ProcessID{12}) {
		t.Fatalf("slot 3 holds %+v, want client 12's command with its waiter", b)
	}
	if _, ok := r.tracked[sessionKey{12, 1}]; !ok || len(r.tracked) != 1 {
		t.Errorf("tracked %v, want client 12's command only", r.tracked)
	}
}
