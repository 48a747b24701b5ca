package oracle

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func item(ts uint64, sender int, readyAt time.Duration) Item {
	return Item{TS: ts, Sender: sender, ReadyAt: readyAt, Payload: nil}
}

func TestDeliversInTimestampOrder(t *testing.T) {
	var h Holdback
	h.Add(item(3, 0, 10))
	h.Add(item(1, 2, 10))
	h.Add(item(2, 1, 10))
	got := h.Ready(10)
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3", len(got))
	}
	if got[0].TS != 1 || got[1].TS != 2 || got[2].TS != 3 {
		t.Fatalf("wrong order: %+v", got)
	}
}

func TestSenderBreaksTies(t *testing.T) {
	var h Holdback
	h.Add(item(5, 3, 0))
	h.Add(item(5, 1, 0))
	got := h.Ready(0)
	if got[0].Sender != 1 || got[1].Sender != 3 {
		t.Fatalf("tie not broken by sender: %+v", got)
	}
}

func TestUnexpiredHeadBlocksExpiredTail(t *testing.T) {
	var h Holdback
	h.Add(item(1, 0, 100)) // small ts, late expiry
	h.Add(item(2, 1, 10))  // large ts, early expiry
	if got := h.Ready(50); got != nil {
		t.Fatalf("delivered %+v before head expiry", got)
	}
	if d, ok := h.NextDeadline(); !ok || d != 100 {
		t.Fatalf("NextDeadline = %v, %v; want 100, true", d, ok)
	}
	got := h.Ready(100)
	if len(got) != 2 || got[0].TS != 1 {
		t.Fatalf("expected both in order at 100, got %+v", got)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	var h Holdback
	h.Add(item(7, 2, 10))
	h.Add(item(7, 2, 999)) // duplicate (TS, Sender): ignored entirely
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	got := h.Ready(10)
	if len(got) != 1 || got[0].ReadyAt != 10 {
		t.Fatalf("duplicate replaced original: %+v", got)
	}
}

func TestEmptyQueue(t *testing.T) {
	var h Holdback
	if got := h.Ready(time.Hour); got != nil {
		t.Fatalf("Ready on empty = %+v", got)
	}
	if _, ok := h.NextDeadline(); ok {
		t.Fatal("NextDeadline on empty should report false")
	}
	if h.Delivered() != 0 || h.Len() != 0 {
		t.Fatal("empty queue counts should be zero")
	}
}

func TestDeliveredCounter(t *testing.T) {
	var h Holdback
	for i := 0; i < 5; i++ {
		h.Add(item(uint64(i+1), 0, time.Duration(i)))
	}
	h.Ready(2)
	if h.Delivered() != 3 || h.Len() != 2 {
		t.Fatalf("Delivered=%d Len=%d, want 3,2", h.Delivered(), h.Len())
	}
	h.Ready(time.Hour)
	if h.Delivered() != 5 || h.Len() != 0 {
		t.Fatalf("Delivered=%d Len=%d, want 5,0", h.Delivered(), h.Len())
	}
}

// TestResetAfterDeliveries: a queue reset mid-run — the one a restarted or
// reused process takes over — starts empty: nothing held, nothing delivered,
// no payload kept from the batch Ready last returned, and it delivers a new
// batch exactly like a fresh queue.
func TestResetAfterDeliveries(t *testing.T) {
	var h Holdback
	for i := 0; i < 4; i++ {
		h.Add(Item{TS: uint64(i), ReadyAt: time.Duration(i), Payload: i})
	}
	batch := h.Ready(1)
	h.Reset(5)
	if h.Len() != 0 || h.Delivered() != 0 {
		t.Fatalf("after Reset: Len=%d Delivered=%d, want 0,0", h.Len(), h.Delivered())
	}
	if batch[0].Payload != nil || batch[1].Payload != nil {
		t.Fatalf("Reset kept the last batch's payloads: %+v", batch)
	}
	if _, ok := h.NextDeadline(); ok {
		t.Fatal("NextDeadline after Reset should report false")
	}
	h.Add(item(9, 1, 5))
	if got := h.Ready(5); len(got) != 1 || got[0].TS != 9 || h.Delivered() != 1 {
		t.Fatalf("after Reset delivered %+v, count %d; want the one new item", got, h.Delivered())
	}
}

// TestReadyReleasesDeliveredPayloads: once the caller is done with a batch —
// marked by its next Ready call — nothing in the queue may keep the
// delivered payloads reachable: not the vacated tail of the backing array,
// not the scratch slice the batch was returned in.
func TestReadyReleasesDeliveredPayloads(t *testing.T) {
	var h Holdback
	for i := 0; i < 4; i++ {
		h.Add(Item{TS: uint64(i), ReadyAt: time.Duration(i), Payload: i})
	}
	first := h.Ready(1)
	if len(first) != 2 || first[0].Payload != 0 || first[1].Payload != 1 {
		t.Fatalf("first batch = %+v", first)
	}
	if tail := h.items[len(h.items):cap(h.items)]; tail[0].Payload != nil || tail[1].Payload != nil {
		t.Fatalf("vacated tail still holds payloads: %+v", tail[:2])
	}
	if h.Ready(1) != nil {
		t.Fatal("nothing new was ready")
	}
	if first[0].Payload != nil || first[1].Payload != nil {
		t.Fatalf("scratch slice still holds the previous batch: %+v", first)
	}
}

// TestReadyDoesNotAllocate: the oracle timer drains the queue once per
// delivery deadline; after the first batch sized the scratch slice, Add and
// Ready run on storage the queue already owns.
func TestReadyDoesNotAllocate(t *testing.T) {
	var h Holdback
	var payload any = "wab"
	now := time.Duration(0)
	round := func() {
		for s := 0; s < 8; s++ {
			h.Add(Item{TS: uint64(now), Sender: 7 - s, ReadyAt: now, Payload: payload})
		}
		if got := h.Ready(now); len(got) != 8 {
			t.Fatalf("delivered %d, want 8", len(got))
		}
		now++
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("Add+Ready allocated %.1f allocs per batch, want 0", allocs)
	}
}

// Property: regardless of arrival order, total delivery order is by
// (TS, Sender), and every message is delivered exactly once.
func TestQuickTotalOrder(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		var h Holdback
		type key struct {
			ts     uint64
			sender int
		}
		want := map[key]bool{}
		for i := 0; i < n; i++ {
			it := item(uint64(rng.Intn(20)), rng.Intn(5), time.Duration(rng.Intn(50)))
			k := key{it.TS, it.Sender}
			if !want[k] {
				want[k] = true
			}
			h.Add(it)
		}
		var all []Item
		for now := time.Duration(0); now <= 50; now++ {
			all = append(all, h.Ready(now)...)
		}
		if len(all) != len(want) {
			return false
		}
		for i := 1; i < len(all); i++ {
			if !less(all[i-1], all[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the paper's 2δ argument — if every message is held for 2δ and
// any message with a smaller timestamp arrives within δ of the first, the
// delivery sequences at two independent queues with different arrival
// orders are identical.
func TestQuickSameOrderAcrossProcesses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const hold = 20 // "2δ" with δ=10
		type msg struct {
			ts     uint64
			sender int
			sentAt int
		}
		var msgs []msg
		for i := 0; i < 20; i++ {
			sentAt := rng.Intn(100)
			msgs = append(msgs, msg{ts: uint64(sentAt), sender: rng.Intn(5), sentAt: sentAt})
		}
		deliverAll := func(arrivalJitter func() int) []Item {
			var h Holdback
			var out []Item
			// Arrival time = sentAt + jitter(≤δ); ReadyAt = arrival+2δ.
			type arr struct {
				at time.Duration
				it Item
			}
			var arrivals []arr
			for _, m := range msgs {
				at := time.Duration(m.sentAt + arrivalJitter())
				arrivals = append(arrivals, arr{at, Item{TS: m.ts, Sender: m.sender, ReadyAt: at + hold}})
			}
			for now := time.Duration(0); now < 300; now++ {
				for _, a := range arrivals {
					if a.at == now {
						h.Add(a.it)
					}
				}
				out = append(out, h.Ready(now)...)
			}
			return out
		}
		j1 := rand.New(rand.NewSource(seed + 1))
		j2 := rand.New(rand.NewSource(seed + 2))
		a := deliverAll(func() int { return j1.Intn(10) })
		b := deliverAll(func() int { return j2.Intn(10) })
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].TS != b[i].TS || a[i].Sender != b[i].Sender {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
