package simnet

import (
	"slices"
	"time"

	"repro/internal/core/consensus"
)

// Broadcast implements consensus.Environment: sends to every process,
// including the sender (the paper's leaders message themselves too).
//
// This is the batched fast path for population-scale clusters: the message
// type is interned once instead of N times, the send counter is bumped once
// by N, and the whole fan-out occupies a single multicast queue entry
// instead of N heap events — an all-to-all round at N=5000 holds ~N
// multicasts in the heap, not N². Per-link semantics are unchanged: every
// recipient gets its own post-TS delay draw (or pre-TS Policy fate,
// including drops and duplicates) from the engine RNG in recipient order,
// and every delivery consumes the same sequence number the unicast loop
// would have, so the delivery schedule is byte-identical to a
// loop of Send calls (broadcast_test.go holds that reference for the
// schedule-equality test and the A/B benchmark).
func (n *Node) Broadcast(m consensus.Message) {
	nw := n.nw
	N := nw.cfg.N
	typeID := nw.collector.Intern(m.Type())
	nw.collector.SentIDN(typeID, N)
	now := nw.eng.Now()
	hist := nw.collector.HistogramsEnabled()
	mc := nw.eng.BeginMulticast(int32(n.id), int64(typeID), m, N)

	if now >= nw.cfg.TS {
		// Stable: every link delivers within δ. Same draw as route, in
		// recipient order.
		span := int64(nw.cfg.Delta-nw.cfg.MinDelay) + 1
		rng := nw.eng.Rand()
		for to := 0; to < N; to++ {
			delay := nw.cfg.MinDelay + time.Duration(rng.Int63n(span))
			if hist {
				nw.collector.ObserveDelivery(typeID, delay)
				nw.observeQueueDepth()
			}
			mc.Add(int32(to), now+delay)
		}
		mc.Commit()
		return
	}

	// Pre-TS: each link's fate comes from the Policy, exactly as route
	// draws it. Drops are counted in one batch increment; duplicates are
	// network re-deliveries and stay individual events (they are rare by
	// construction — a duplicating policy at population scale would be N²
	// events again regardless of representation).
	dropped := 0
	for to := 0; to < N; to++ {
		fate := nw.cfg.Policy.Fate(Transmission{From: n.id, To: consensus.ProcessID(to), Msg: m, SentAt: now, TS: nw.cfg.TS, Delta: nw.cfg.Delta, Duplicates: nw.dups[:0]}, nw.eng.Rand())
		if fate.Drop {
			dropped++
			continue
		}
		delay := fate.Delay
		if delay < 0 {
			delay = 0
		}
		for _, d := range fate.Duplicates {
			if d < 0 {
				d = 0
			}
			if hist {
				nw.collector.ObserveDelivery(typeID, d)
			}
			nw.eng.ScheduleDelivery(now+d, int32(n.id), int32(to), int64(typeID), m)
		}
		nw.dups = slices.Grow(nw.dups[:0], len(fate.Duplicates))
		if hist {
			nw.collector.ObserveDelivery(typeID, delay)
			nw.observeQueueDepth()
		}
		mc.Add(int32(to), now+delay)
	}
	if dropped > 0 {
		nw.collector.DroppedIDN(typeID, dropped)
	}
	mc.Commit()
}
