package rsm

// What a lagging replica relies on once retired slots are silent. A follower
// loses every message that could tell it the value of a slot range while the
// other two replicas decide, apply and retire those slots; nobody announces
// a retired slot, so when the network heals the follower must close the gap
// itself — by its instances' ε heartbeat (a P1a, answered from the decision
// log) or by the catch-up timer's Learn — within a stated virtual time.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/simnet"
)

// recoveryPath selects what stays lost to the victim after the heal.
type recoveryPath int

const (
	bothPaths recoveryPath = iota
	askOnly                // every LearnReply stays lost
	learnOnly              // the range's Decided stay lost
)

func (p recoveryPath) String() string {
	return [...]string{"both paths", "heartbeat P1a only", "Learn only"}[p]
}

// lossScript is the pre-TS policy of the recovery sweep: the network is
// synchronous except that the victim loses the P2a, P2b and Decided of slots
// [lo, hi) and every LearnReply until *healed, and what path leaves lost
// after.
type lossScript struct {
	victim consensus.ProcessID
	lo, hi int64
	healed *bool
	path   recoveryPath
}

func (l lossScript) Fate(tx simnet.Transmission, rng *rand.Rand) simnet.Fate {
	if tx.To == l.victim && l.loses(tx.Msg) {
		return simnet.Fate{Drop: true}
	}
	return simnet.Synchronous{}.Fate(tx, rng)
}

func (l lossScript) loses(m consensus.Message) bool {
	switch msg := m.(type) {
	case LearnReply:
		return !*l.healed || l.path == askOnly
	case SlotMsg:
		if msg.Slot < l.lo || msg.Slot >= l.hi {
			return false
		}
		switch msg.Inner.(type) {
		case modpaxos.P2a, modpaxos.P2b:
			return !*l.healed
		case modpaxos.Decided:
			return !*l.healed || l.path == learnOnly
		}
	}
	return false
}

// TestSimLaggingFollowerRecoversRetiredSlots sweeps seeds × the three paths.
// Before the heal the victim must be stuck exactly at the range (the loss
// bites); after it, it must have applied the whole log within
//
//	heartbeat path: 2ε + 2δ — a heartbeat P1a leaves within 2ε, one delay
//	                there, one back with the logged value;
//	Learn path:     2δ + 2δ — the catch-up timer's period, then Learn and
//	                LearnReply;
//
// with every replica's log exactly-once, complete and identical.
func TestSimLaggingFollowerRecoversRetiredSlots(t *testing.T) {
	const (
		n       = 3
		victim  = consensus.ProcessID(2)
		lo, hi  = 4, 12
		clients = 6
		ops     = 8
	)
	delta := 10 * time.Millisecond
	eps := delta / 2 // modpaxos default
	bound := map[recoveryPath]time.Duration{
		bothPaths: 2*eps + 2*delta,
		askOnly:   2*eps + 2*delta,
		learnOnly: 4 * delta,
	}
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	var byAsk, byLearn int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, path := range []recoveryPath{bothPaths, askOnly, learnOnly} {
			healed := false
			eng, nw, logs := faultGroup(t, seed, simnet.Config{
				N: n, Delta: delta, TS: time.Hour,
				Policy: lossScript{victim: victim, lo: lo, hi: hi, healed: &healed, path: path},
			}, Config{MaxBatch: 2, MaxInFlight: 4})
			// Which delivery closed each slot of the range at the victim.
			closed := make(map[int64]bool)
			closes := func(slot int64, count *int) {
				if healed && path == bothPaths && slot >= lo && slot < hi && !closed[slot] {
					closed[slot] = true
					*count++
				}
			}
			nw.Observe(func(_ time.Duration, _, to consensus.ProcessID, m consensus.Message) {
				if to != victim {
					return
				}
				switch msg := m.(type) {
				case SlotMsg:
					if _, ok := msg.Inner.(modpaxos.Decided); ok {
						closes(msg.Slot, &byAsk)
					}
				case LearnReply:
					for _, e := range msg.Entries {
						closes(e.Slot, &byLearn)
					}
				}
			})
			nw.Start()
			for k := 1; k <= ops; k++ {
				for c := 0; c < clients; c++ {
					at := delta + time.Duration((k-1)*clients+c)*delta/3
					nw.Inject(at, 1, Leader(), ClientPropose{Client: int64(100 + c), Seq: uint64(k), Cmd: "op"})
				}
			}

			applied := func(id int) int { return len(logs[id].snapshot()) }
			if !eng.RunUntil(func() bool { return applied(0) == clients*ops && applied(1) == clients*ops }, time.Minute) {
				t.Fatalf("seed %d, %v: the majority applied %d/%d of %d commands", seed, path, applied(0), applied(1), clients*ops)
			}
			v := replica(t, nw, victim)
			if v.Applied() != lo || v.maxSeen < hi {
				t.Fatalf("seed %d, %v: before the heal the victim applied %d slots and has seen slot %d; want it stuck at %d knowing of %d",
					seed, path, v.Applied(), v.maxSeen, lo, hi)
			}
			for _, id := range []consensus.ProcessID{0, 1} {
				if r := replica(t, nw, id); r.Applied() < hi || len(r.slots) != 0 {
					t.Fatalf("seed %d, %v: replica %d applied %d slots with %d live instances; want the range retired", seed, path, id, r.Applied(), len(r.slots))
				}
			}

			healed = true
			eng.Run(eng.Now() + bound[path])
			if got := applied(int(victim)); got != clients*ops {
				t.Fatalf("seed %d, %v: %v after the heal the victim has applied %d of %d commands (%d slots)",
					seed, path, bound[path], got, clients*ops, v.Applied())
			}
			for id, l := range logs {
				entries := l.snapshot()
				assertExactlyOnce(t, id, entries)
				for c := 0; c < clients; c++ {
					countSession(t, id, entries, int64(100+c), ops)
				}
			}
			assertSameLog(t, logs)
		}
	}
	t.Logf("with both paths open, over %d seeds: %d range slots closed by an answered heartbeat, %d by Learn", seeds, byAsk, byLearn)
}
