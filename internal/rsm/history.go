package rsm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core/consensus"
)

// History is the replicated log's oracle. Every replica incarnation applies
// into a recorder from NewApplier, which plugs into Config.NewApplier, and
// clients report their acks through Acked. Each apply is checked as it
// arrives, against two indexes rather than per-replica logs:
//
//   - apply-order: an incarnation applies (slot, idx) in increasing order;
//   - agreement: a position applied twice holds the same (client, seq);
//   - exactly-once: no (client, seq > 0) is applied at two positions.
//
// Findings adds the end-of-run checks:
//
//   - gap: an incarnation skipped a position some replica applied. It must
//     apply every position from the log's start, or from where a Restore (a
//     snapshot install) put it, up to where it stopped;
//   - lost-ack: an acked (client, seq) that no incarnation applied.
//
// It is safe for concurrent use: on the live runtime every replica applies
// on its own goroutine. The zero value is ready to use.
type History struct {
	mu       sync.Mutex
	at       map[logPos]applied
	pos      map[sessionKey]logPos
	acked    []sessionKey
	latest   map[consensus.ProcessID]*historyApplier // each replica's latest incarnation
	segs     []*segment                              // every incarnation's, in the order they opened
	findings []string
}

// logPos is one command's place in the log.
type logPos struct {
	slot int64
	idx  int
}

func (p logPos) less(q logPos) bool { return p.slot < q.slot || (p.slot == q.slot && p.idx < q.idx) }

// applied is what a position holds and the replica that applied it first.
type applied struct {
	op sessionKey
	by consensus.ProcessID
}

// segment is a run of one incarnation's applies between Restores.
type segment struct {
	replica     consensus.ProcessID
	inc         int
	restored    bool // opened by a Restore, not at the log's start
	first, last logPos
	n           int
}

// historyApplier records one replica incarnation into its History.
type historyApplier struct {
	h    *History
	seg  *segment // the open one
	last logPos   // slot -1 until the first apply
}

var (
	_ EntryApplier = (*historyApplier)(nil)
	_ Snapshotter  = (*historyApplier)(nil)
)

// NewApplier starts a new incarnation of replica id and returns its
// recorder; it has the signature of Config.NewApplier.
func (h *History) NewApplier(id consensus.ProcessID) Applier {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.at == nil {
		h.at, h.pos = make(map[logPos]applied), make(map[sessionKey]logPos)
		h.latest = make(map[consensus.ProcessID]*historyApplier)
	}
	a := &historyApplier{h: h, seg: &segment{replica: id}, last: logPos{slot: -1}}
	if prev, ok := h.latest[id]; ok {
		a.seg.inc = prev.seg.inc + 1
	}
	h.latest[id], h.segs = a, append(h.segs, a.seg)
	return a
}

// Acked records that client was acknowledged for its operation seq.
func (h *History) Acked(client int64, seq uint64) {
	h.mu.Lock()
	h.acked = append(h.acked, sessionKey{client, seq})
	h.mu.Unlock()
}

// Apply implements Applier. A replica calls ApplyEntry instead, so this
// only sees a command recorded without its batch position or session.
func (a *historyApplier) Apply(slot int64, cmd consensus.Value) {
	a.ApplyEntry(slot, 0, Command{Op: cmd})
}

// ApplyEntry implements EntryApplier: it records the command and checks
// apply order, agreement and exactly-once against everything applied so far.
func (a *historyApplier) ApplyEntry(slot int64, idx int, cmd Command) {
	h, s := a.h, a.seg
	p, op := logPos{slot, idx}, sessionKey{cmd.Client, cmd.Seq}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !a.last.less(p) {
		h.addf("apply-order: replica %d incarnation %d applied slot %d idx %d after slot %d idx %d",
			s.replica, s.inc, slot, idx, a.last.slot, a.last.idx)
	}
	a.last = p
	if s.n == 0 {
		s.first = p
	}
	s.last = p
	s.n++
	if prev, ok := h.at[p]; !ok {
		h.at[p] = applied{op, s.replica}
	} else if prev.op != op {
		h.addf("agreement: slot %d idx %d is client %d seq %d at replica %d but client %d seq %d at replica %d",
			slot, idx, cmd.Client, cmd.Seq, s.replica, prev.op.client, prev.op.seq, prev.by)
	}
	if cmd.Seq == 0 {
		return
	}
	if prev, ok := h.pos[op]; !ok {
		h.pos[op] = p
	} else if prev != p {
		h.addf("exactly-once: client %d seq %d applied at slot %d idx %d and at slot %d idx %d",
			cmd.Client, cmd.Seq, prev.slot, prev.idx, slot, idx)
	}
}

// Snapshot implements Snapshotter. The recorder has no state to ship; being
// a Snapshotter is what makes a snapshot install call Restore.
func (a *historyApplier) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Snapshotter: the incarnation jumps to a snapshot's
// horizon, so what it applies next is a new segment.
func (a *historyApplier) Restore([]byte) error {
	a.h.mu.Lock()
	defer a.h.mu.Unlock()
	a.seg = &segment{replica: a.seg.replica, inc: a.seg.inc, restored: true}
	a.h.segs = append(a.h.segs, a.seg)
	return nil
}

func (h *History) addf(format string, args ...any) {
	h.findings = append(h.findings, fmt.Sprintf(format, args...))
}

// Frontier reports the log length replica id's latest incarnation reached:
// one past the last slot it applied, 0 if it applied nothing.
func (h *History) Frontier(id consensus.ProcessID) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if a, ok := h.latest[id]; ok {
		return a.last.slot + 1
	}
	return 0
}

// Applied reports how many distinct operations (client, seq > 0) some
// replica applied.
func (h *History) Applied() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pos)
}

// Findings returns every violation recorded so far, then the end-of-run
// checks over the history as it stands.
func (h *History) Findings() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.findings...)
	all := make([]logPos, 0, len(h.at))
	for p := range h.at {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	for _, s := range h.segs {
		if s.n == 0 {
			continue
		}
		lo := s.first
		if !s.restored {
			lo = all[0]
		}
		i := sort.Search(len(all), func(i int) bool { return !all[i].less(lo) })
		j := sort.Search(len(all), func(i int) bool { return s.last.less(all[i]) })
		if s.n < j-i {
			out = append(out, fmt.Sprintf(
				"gap: replica %d incarnation %d applied %d of the %d positions from slot %d idx %d to slot %d idx %d",
				s.replica, s.inc, s.n, j-i, lo.slot, lo.idx, s.last.slot, s.last.idx))
		}
	}
	for _, op := range h.acked {
		if _, ok := h.pos[op]; !ok {
			out = append(out, fmt.Sprintf(
				"lost-ack: client %d seq %d was acknowledged but never applied at any replica", op.client, op.seq))
		}
	}
	return out
}
