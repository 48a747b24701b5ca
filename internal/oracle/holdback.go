// Package oracle implements the message-delivery oracle of §5: broadcast
// messages are timestamped with Lamport logical clocks, and each process
// holds a received message for 2δ before delivering it, delivering in
// (timestamp, sender) order.
//
// Why this works after stabilization (the paper's argument): a message m
// sent when the system is stable reaches every nonfaulty process within δ,
// after which every message anyone sends carries a higher timestamp.
// Waiting 2δ after receipt therefore guarantees the process has already
// received every message with a lower timestamp that was sent after
// stabilization — so all processes deliver the same set of messages in the
// same (timestamp, sender) order.
//
// The package provides the per-process hold-back queue; the consensus
// algorithm (internal/core/bconsensus) owns the Lamport clock and feeds
// received oracle messages in.
package oracle

import "time"

// Item is one held message awaiting oracle delivery.
type Item struct {
	// TS is the sender's Lamport timestamp.
	TS uint64
	// Sender breaks timestamp ties; (TS, Sender) totally orders oracle
	// messages because a sender never reuses a timestamp.
	Sender int
	// ReadyAt is the local-clock time at which the hold-back expires
	// (receipt time + the hold-back duration).
	ReadyAt time.Duration
	// Payload is the protocol message being ordered.
	Payload any
}

// less is the oracle delivery order.
func less(a, b Item) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	return a.Sender < b.Sender
}

// Holdback is the per-process hold-back queue. It is not safe for
// concurrent use; each process owns one and drives it from its event loop.
//
// The zero value is an empty queue ready for use. A queue told the cluster
// size by Reset makes room for one message per process the first time it
// needs any, instead of regrowing from one.
type Holdback struct {
	items     []Item // sorted by (TS, Sender)
	ready     []Item // the slice Ready last returned, reused by the next call
	delivered int    // count of delivered messages (for tests/metrics)
	size      int    // cluster size, from Reset
}

// Reset empties the queue (held messages, Ready's scratch, the delivered
// count), keeping its storage, and records the cluster size n.
func (h *Holdback) Reset(n int) {
	clear(h.items)
	h.items = h.items[:0]
	clear(h.ready)
	h.ready = h.ready[:0]
	h.delivered = 0
	h.size = n
}

// Add inserts a received message. Duplicates — same (TS, Sender) — are
// ignored, which makes retransmission through the oracle idempotent.
func (h *Holdback) Add(it Item) {
	if h.items == nil {
		h.items = make([]Item, 0, h.size)
	}
	// Binary search for the first held item not before it.
	i, end := 0, len(h.items)
	for i < end {
		mid := int(uint(i+end) >> 1)
		if less(h.items[mid], it) {
			i = mid + 1
		} else {
			end = mid
		}
	}
	if i < len(h.items) && h.items[i].TS == it.TS && h.items[i].Sender == it.Sender {
		return
	}
	h.items = append(h.items, Item{})
	copy(h.items[i+1:], h.items[i:])
	h.items[i] = it
}

// Ready pops and returns, in delivery order, the prefix of held messages
// whose hold-back has expired at local time now. Delivery stops at the
// first unexpired message even if later ones have expired: delivering
// around it would violate timestamp order.
//
// The returned slice is the queue's own scratch space, valid until the next
// call to Ready; a caller that keeps items longer must copy them.
func (h *Holdback) Ready(now time.Duration) []Item {
	n := 0
	for n < len(h.items) && h.items[n].ReadyAt <= now {
		n++
	}
	clear(h.ready) // drop the payloads the previous call handed out
	h.ready = h.ready[:0]
	if n == 0 {
		return nil
	}
	h.ready = append(h.ready, h.items[:n]...)
	kept := copy(h.items, h.items[n:])
	// Clear the vacated tail so the backing array does not keep delivered
	// payloads reachable.
	clear(h.items[kept:])
	h.items = h.items[:kept]
	h.delivered += n
	return h.ready
}

// NextDeadline returns the earliest hold-back expiry among messages that
// head the queue, and false if the queue is empty. The owner arms a timer
// for this time and calls Ready when it fires.
//
// Note this is the expiry of the queue head specifically: a later message
// with an earlier deadline cannot be delivered before the head anyway.
func (h *Holdback) NextDeadline() (time.Duration, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].ReadyAt, true
}

// Len returns the number of held (undelivered) messages.
func (h *Holdback) Len() int { return len(h.items) }

// Delivered returns the total number of messages delivered so far.
func (h *Holdback) Delivered() int { return h.delivered }
