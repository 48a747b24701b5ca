package rsm_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/rsm"
)

// step is one event of a hand-built history: an apply, a Restore, a restart
// (a new incarnation) or an ack.
type step struct {
	replica consensus.ProcessID
	slot    int64
	idx     int
	client  int64
	seq     uint64
	restore bool
	restart bool
	ack     bool
}

func apply(r consensus.ProcessID, slot int64, idx int, client int64, seq uint64) step {
	return step{replica: r, slot: slot, idx: idx, client: client, seq: seq}
}
func restore(r consensus.ProcessID) step { return step{replica: r, restore: true} }
func restart(r consensus.ProcessID) step { return step{replica: r, restart: true} }
func ack(client int64, seq uint64) step  { return step{client: client, seq: seq, ack: true} }
func kinds(findings []string) (out []string) {
	for _, f := range findings {
		kind, _, _ := strings.Cut(f, ":")
		out = append(out, kind)
	}
	return out
}

// log3 is three slots of two commands each, as every replica applies them.
func log3(r consensus.ProcessID) []step {
	return []step{
		apply(r, 0, 0, 10, 1), apply(r, 0, 1, 11, 1),
		apply(r, 1, 0, 10, 2), apply(r, 1, 1, 11, 2),
		apply(r, 2, 0, 10, 3), apply(r, 2, 1, 11, 3),
	}
}

// TestHistoryFindings drives the oracle with hand-built histories: one clean
// one, one per finding kind, and the restart cases a checker that keeps only
// each replica's latest incarnation, or checks gaps only on fault-free runs,
// gets wrong.
func TestHistoryFindings(t *testing.T) {
	acks := []step{ack(10, 1), ack(11, 1), ack(10, 2), ack(11, 2), ack(10, 3), ack(11, 3)}
	for _, tc := range []struct {
		name  string
		steps []step
		want  []string
	}{
		{"clean", slices.Concat(log3(0), log3(1), log3(2)[:3], acks,
			// replica 1 restarts and replays a prefix of its log; replica 2
			// trails; a sessionless command may repeat.
			[]step{restart(1)}, log3(1)[:4],
			[]step{apply(0, 3, 0, 0, 0), apply(0, 4, 0, 0, 0)}), nil},
		{"apply-order", slices.Concat(log3(0), []step{apply(1, 1, 0, 10, 2), apply(1, 0, 1, 11, 1)}),
			[]string{"apply-order"}},
		{"agreement", slices.Concat(log3(0), []step{apply(1, 0, 0, 10, 1), apply(1, 0, 1, 12, 1)}),
			[]string{"agreement"}},
		{"exactly-once", slices.Concat(log3(0)[:2], []step{apply(0, 1, 0, 10, 1)}),
			[]string{"exactly-once"}},
		{"gap", slices.Concat(log3(0), []step{apply(1, 0, 0, 10, 1), apply(1, 1, 0, 10, 2)}),
			[]string{"gap"}},
		{"gap at the log's start", slices.Concat(log3(0), log3(1)[2:]),
			[]string{"gap"}},
		{"lost-ack", slices.Concat(log3(0), acks, []step{ack(12, 1)}),
			[]string{"lost-ack"}},
		// Replica 1's first incarnation applied a conflicting entry before it
		// crashed; its second incarnation replays the right one.
		{"conflict before a restart", slices.Concat(log3(0),
			[]step{apply(1, 0, 0, 10, 1), apply(1, 0, 1, 12, 7), restart(1)}, log3(1)),
			[]string{"agreement"}},
		// The restarted leader replays slot 0 but skips slot 1 idx 1.
		{"gap after a crash", slices.Concat(log3(1), log3(0)[:2], []step{restart(0)},
			log3(0)[:3], log3(0)[4:]),
			[]string{"gap"}},
		// Replica 2 installs a snapshot at slot 2, in its first incarnation
		// and again in its second before it applies anything.
		{"jump after Restore", slices.Concat(log3(0), log3(2)[:1], []step{restore(2)}, log3(2)[4:],
			[]step{restart(2), restore(2)}, log3(2)[4:]), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h rsm.History
			live := map[consensus.ProcessID]rsm.Applier{}
			for _, s := range tc.steps {
				if s.ack {
					h.Acked(s.client, s.seq)
					continue
				}
				a, ok := live[s.replica]
				if !ok || s.restart {
					a = h.NewApplier(s.replica)
					live[s.replica] = a
				}
				switch {
				case s.restart:
				case s.restore:
					if err := a.(rsm.Snapshotter).Restore(nil); err != nil {
						t.Fatal(err)
					}
				default:
					a.(rsm.EntryApplier).ApplyEntry(s.slot, s.idx, rsm.Command{Client: s.client, Seq: s.seq})
				}
			}
			got := h.Findings()
			if !slices.Equal(kinds(got), tc.want) {
				t.Fatalf("findings %q, want kinds %v", got, tc.want)
			}
		})
	}
}

// TestHistoryConcurrentReplicas applies from one goroutine per replica and
// acks from another, as the live runtime does.
func TestHistoryConcurrentReplicas(t *testing.T) {
	var h rsm.History
	var wg sync.WaitGroup
	for id := consensus.ProcessID(0); id < 3; id++ {
		a := h.NewApplier(id).(rsm.EntryApplier)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := int64(0); slot < 100; slot++ {
				a.ApplyEntry(slot, 0, rsm.Command{Client: 5, Seq: uint64(slot + 1)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= 100; seq++ {
			h.Acked(5, seq)
		}
	}()
	wg.Wait()
	if f := h.Findings(); len(f) != 0 || h.Applied() != 100 || h.Frontier(0) != 100 {
		t.Fatalf("findings %q, applied %d, frontier %d", f, h.Applied(), h.Frontier(0))
	}
}
