// Package rsm builds a replicated state machine from a sequence of
// independent modified-Paxos instances — the setting the paper's
// "Reducing Message Complexity" discussion (§4) is about: "The message
// complexity of a consensus algorithm matters only when a system executes a
// sequence of separate instances of the algorithm."
//
// Each log slot is one modpaxos instance, multiplexed over a single
// consensus.Process per replica (so the replica runs unchanged on the
// simulator or the live runtime). Slot instances run in the Prepared
// configuration with replica 0 as the distinguished proposer: phase 1 is
// pre-executed, so in the stable case a client command commits within three
// message delays (client → leader, phase 2a, phase 2b), exactly the
// ordinary-Paxos behaviour the paper says the modified algorithm can match.
// A replica's slot messages to itself are delivered locally when the event
// that sent them ends, so the leader's own phase-2 vote counts at once and a
// slot decides on its fastest followers' phase-2 round trips.
//
// On top of the slot machinery the leader runs a serving path:
//
//   - Batching: queued client commands are coalesced into one consensus
//     instance (up to MaxBatch per slot, optionally lingering for Linger to
//     fill a batch).
//   - Pipelining: up to MaxInFlight slots run concurrently; the apply path
//     already tolerates out-of-order decisions and fills gaps.
//   - Sessions: commands carry (client, seq); retries after Redirect, Busy,
//     or timeout are deduplicated at apply time, so client ops are
//     exactly-once in the log even when proposed twice.
//   - Backpressure: the proposal queue is bounded (MaxQueue); overflow is
//     shed with an explicit Busy reply instead of silent loss.
//
// Commands are uninterpreted strings applied in slot order; the built-in
// state machine, KVStore, reads them as "set key value". Slots decided out
// of order wait for the gap to fill before applying.
//
// An applied slot retires its protocol instance, and retirement is silence.
// A slot that decides in order is applied and retired inside its instance's
// own Decide call; from then on its environment drops what the instance
// still does (announce Decided, arm the gossip timer), so a stable-case slot
// costs its phase-2 traffic — N−1 P2a and N(N−1) P2b on the network — and
// no announcement. A slot decided above a gap cannot apply yet: it stays
// live, announces, and gossips until the gap fills — the one time gossip
// helps. A retired slot speaks only when asked: a peer's P1a (an undecided
// instance sends one after every ε of quiet, and the leader's or a restarted
// replica's when it opens; a follower's opens silently, phase 1 having run)
// or P2a (a ballot owner still proposing) is answered with the logged value,
// and the replica's own, queued locally before the slot retired, needs no
// answer; a P1b or P2b answers somebody else's question and is dropped, its
// sender being covered by its own heartbeat. Below the snapshot horizon there
// is no record left and nothing is answered. So a replica that missed a
// decision relies on two things, both its own initiative: the ε heartbeat of
// its open instance, answered from a peer's decision log, and the catch-up
// timer, which sends Learn for any gap below a slot it knows exists (shipping
// the snapshot when the gap is below the peer's horizon) and opens the gap's
// lowest instances, so a slot whose messages were all lost still asks.
//
// A retired instance is not dropped but kept for a later slot: once the
// event that retired it has ended, the replica resets it in place
// (modpaxos.Process.Recycle) for the next slot it opens, so a warm replica
// opens a slot without building a process, an environment or tallies.
package rsm

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/leader"
	"repro/internal/storage"
	"repro/internal/trace"
)

// NoOp is the command decided for a slot no client command reached; it is
// skipped at apply time.
const NoOp consensus.Value = ""

// timer multiplexing: block 0 belongs to the replica itself, and each slot
// instance gets the block at (slot+1)*timersPerSlot.
const timersPerSlot = 8

// Replica-level timer IDs (block 0).
const (
	lingerTimer  consensus.TimerID = 0
	catchupTimer consensus.TimerID = 1
	// beatTimer paces the leader's liveness broadcast (failover only).
	beatTimer consensus.TimerID = 2
	// failoverTimer is the follower's leader-silence watchdog.
	failoverTimer consensus.TimerID = 3
)

// slotKeyPrefix namespaces the per-slot decision records in stable storage.
const slotKeyPrefix = storage.KeyRSMLogPrefix

// slotNamespace prefixes the per-slot store namespace handed to inner
// protocol instances ("slot<N>/...", see slotEnv.Store).
const slotNamespace = storage.KeySlotPrefix

// maxParkedQueries bounds the per-replica list of read queries waiting for
// the log to reach their MinApplied watermark.
const maxParkedQueries = 256

// learnChunk bounds the decided slots returned per LearnReply.
const learnChunk = 64

// ClientPropose asks the receiving replica to order a command. Client and
// Seq identify the session (Seq == 0 is sessionless: no dedup). Only the
// distinguished proposer (replica 0) accepts it; other replicas redirect.
type ClientPropose struct {
	Client int64
	Seq    uint64
	Cmd    consensus.Value
}

// Type implements consensus.Message.
func (ClientPropose) Type() string { return "rsm-propose" }

// Redirect tells a client which replica is the proposer. Epoch stamps the
// sender's leadership view so a client can discard redirects that are
// staler than what it already follows (a deposed leader pointing backwards).
type Redirect struct {
	Leader consensus.ProcessID
	Epoch  int64
}

// Type implements consensus.Message.
func (Redirect) Type() string { return "rsm-redirect" }

// Committed acknowledges a proposal: the command was applied from Slot.
// Seq echoes the proposal's sequence number so clients match replies to
// operations (Slot is −1 when a stale retry is acknowledged after the
// session has moved past it).
type Committed struct {
	Slot int64
	Seq  uint64
	Cmd  consensus.Value
}

// Type implements consensus.Message.
func (Committed) Type() string { return "rsm-committed" }

// Busy rejects a proposal or query because the replica is at capacity (the
// proposal queue or parked-query list is full). Clients back off and retry;
// nothing was enqueued.
type Busy struct {
	QueueLen int
}

// Type implements consensus.Message.
func (Busy) Type() string { return "rsm-busy" }

// Query asks a replica for the applied value of a key once it has applied
// at least MinApplied slots; the replica parks unsatisfiable queries and
// answers when the log catches up (no client polling). ReqID matches the
// reply to the query.
type Query struct {
	Key        string
	MinApplied int64
	ReqID      uint64
}

// Type implements consensus.Message.
func (Query) Type() string { return "rsm-query" }

// QueryReply answers a Query. Found is false if the key has no applied
// value yet.
type QueryReply struct {
	Key   string
	Value string
	Found bool
	// Applied is the number of log slots applied at reply time.
	Applied int64
	ReqID   uint64
}

// Type implements consensus.Message.
func (QueryReply) Type() string { return "rsm-reply" }

// SlotMsg carries one slot instance's protocol message.
type SlotMsg struct {
	Slot  int64
	Inner consensus.Message
}

// Type implements consensus.Message. Every backend asks at least twice per
// message, so the five types a slot instance sends answer from a type
// switch, without hashing or building a string.
func (m SlotMsg) Type() string {
	switch m.Inner.(type) {
	case nil:
		return "rsm-slot"
	case modpaxos.P1a:
		return "rsm-p1a"
	case modpaxos.P1b:
		return "rsm-p1b"
	case modpaxos.P2a:
		return "rsm-p2a"
	case modpaxos.P2b:
		return "rsm-p2b"
	case modpaxos.Decided:
		return "rsm-decided"
	}
	return wrappedType(m.Inner)
}

// wrappedType names a SlotMsg around any other inner message (no slot
// instance sends one; tests do).
func wrappedType(inner consensus.Message) string { return "rsm-" + inner.Type() }

// Learn asks a peer for decided slots starting at From. Replicas send it on
// a timer while their log has a gap below a slot they know exists; it
// replaces the per-instance eternal decision gossip that retired instances
// no longer provide.
type Learn struct {
	From int64
}

// Type implements consensus.Message.
func (Learn) Type() string { return "rsm-learn" }

// SlotValue is one decided (slot, value) pair in a LearnReply.
type SlotValue struct {
	Slot int64
	Val  consensus.Value
}

// LearnReply returns a chunk of decided slots.
type LearnReply struct {
	Entries []SlotValue
}

// Type implements consensus.Message.
func (LearnReply) Type() string { return "rsm-learned" }

// maxSlots bounds the log: a backstop against a runaway proposer and
// against slot numbers from the wire.
const maxSlots = 1 << 20

// Config configures a replica group.
type Config struct {
	// Paxos configures every slot instance; Prepared is forced on.
	Paxos modpaxos.Config
	// MaxBatch is the most client commands coalesced into one slot
	// (default 8).
	MaxBatch int
	// Linger holds a partial batch for up to this long waiting for it to
	// fill (default 0: propose immediately — batching still emerges under
	// load once the pipeline window is saturated).
	Linger time.Duration
	// MaxInFlight is the slot pipelining window: how many instances may run
	// concurrently (default 4).
	MaxInFlight int
	// MaxQueue bounds the leader's proposal queue; overflow is rejected
	// with Busy (default 1024).
	MaxQueue int
	// MaxSessions bounds the in-memory session-dedup table. When more
	// clients than this have applied commands, the sessions with the
	// oldest applied slots spill to the stable store, where lookups still
	// find them — exactly-once semantics survive eviction (default 4096).
	MaxSessions int
	// NewApplier, when set, supplies the state machine per replica instead
	// of the built-in KVStore (queries then read an empty store).
	NewApplier func(id consensus.ProcessID) Applier
	// FailoverTimeout is the silence bound σ, and setting it enables
	// epoch-based leader failover: every follower that hears nothing from
	// the leader for this long claims the next epoch it owns, and the
	// highest claimer leads. The leader beats every σ/4. Zero keeps the
	// static leader at replica 0 with no heartbeat traffic — the schedules
	// of existing runs are unchanged.
	FailoverTimeout time.Duration
	// SnapshotEvery enables log compaction: every time this many more
	// slots have applied, the replica snapshots its applier + session
	// table and truncates the decision log below the horizon. Zero
	// disables compaction (the log grows without bound).
	SnapshotEvery int64
}

// WithDefaults fills the zero values: it is what New runs, so a caller can
// report the values that actually ran.
func (c Config) WithDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	c.Paxos.Prepared = true
	return c
}

// Applier consumes committed commands in slot order. Implementations must
// be fast: they run on the replica's event loop.
type Applier interface {
	Apply(slot int64, cmd consensus.Value)
}

// EntryApplier is optionally implemented by Appliers that want the batch
// structure: one call per command with its index within the slot and the
// full session identity (History's recorder uses this).
type EntryApplier interface {
	ApplyEntry(slot int64, idx int, cmd Command)
}

// sessionKey identifies one client operation for dedup tracking.
type sessionKey struct {
	client int64
	seq    uint64
}

// queuedCmd is one client command riding through queue → slot → apply with
// the clients to acknowledge.
type queuedCmd struct {
	cmd        Command
	waiters    []consensus.ProcessID
	enqueuedAt time.Duration
}

func (q *queuedCmd) addWaiter(p consensus.ProcessID) {
	for _, w := range q.waiters {
		if w == p {
			return
		}
	}
	q.waiters = append(q.waiters, p)
}

// Session is the per-client dedup state: the highest applied sequence
// number and the slot it applied from. (Exported because snapshots carry
// the full session table over the wire.)
type Session struct {
	Seq  uint64
	Slot int64
}

// sessKeyPrefix namespaces spilled session records in the stable store.
const sessKeyPrefix = storage.KeyRSMSessPrefix

func sessKey(client int64) string {
	return sessKeyPrefix + strconv.FormatInt(client, 10)
}

// lookupSession returns the client's dedup record: the bounded in-memory
// table first, then records spilled to the stable store by eviction.
func (r *Replica) lookupSession(client int64) (Session, bool) {
	if s, ok := r.sessions[client]; ok {
		return s, true
	}
	var s Session
	if ok, err := r.env.Store().Get(sessKey(client), &s); err == nil && ok {
		return s, true
	}
	return Session{}, false
}

// recordSession updates a client's dedup record after its command applied,
// evicting the oldest records once the in-memory table exceeds MaxSessions.
func (r *Replica) recordSession(client int64, s Session) {
	known := len(r.sessions)
	r.sessions[client] = s
	if len(r.sessions) > known {
		i, _ := slices.BinarySearch(r.clients, client)
		r.clients = slices.Insert(r.clients, i, client)
	}
	for len(r.sessions) > r.cfg.MaxSessions {
		r.evictOldestSession()
	}
}

// restoreSessions replaces the dedup table with a snapshot's.
func (r *Replica) restoreSessions(from map[int64]Session) {
	r.sessions = make(map[int64]Session, len(from))
	maps.Copy(r.sessions, from)
	r.clients = slices.Sorted(maps.Keys(from))
}

// evictOldestSession spills the session whose last applied slot is oldest
// to the stable store and drops it from memory. A spilled client's next
// duplicate costs one store read instead of a map hit; its exactly-once
// guarantee is unchanged.
func (r *Replica) evictOldestSession() {
	victim, vs, found := int64(0), Session{}, false
	for c, s := range r.sessions {
		if !found || s.Slot < vs.Slot || (s.Slot == vs.Slot && c < victim) {
			// The (slot, client) comparison totally orders the entries, so
			// the argmin is unique whatever order the map yields.
			//repro:allow detlint total slot-client order makes the argmin unique
			victim, vs, found = c, s, true
		}
	}
	if !found {
		return
	}
	if err := r.env.Store().Put(sessKey(victim), vs); err != nil {
		r.env.Logf("rsm: spill session %d: %v", victim, err)
	}
	delete(r.sessions, victim)
	i, _ := slices.BinarySearch(r.clients, victim)
	r.clients = slices.Delete(r.clients, i, i+1)
}

// parkedQuery is a read waiting for the log to reach its watermark.
type parkedQuery struct {
	from consensus.ProcessID
	q    Query
}

// Replica is one member of the replicated state machine. It implements
// consensus.Process; its inner slot instances are ordinary modpaxos
// processes running against slot-scoped environments.
type Replica struct {
	id      consensus.ProcessID
	n       int
	cfg     Config
	factory consensus.Factory
	env     consensus.Environment
	applier Applier

	slots     map[int64]*slotState
	local     []SlotMsg // slot messages to itself, in send order (deliverLocal)
	nextSlot  int64     // proposer: next slot to assign
	applied   int64     // number of contiguous slots applied
	decisions map[int64]consensus.Value
	// decidedAt records each slot's decision time until it applies, for the
	// decide→apply lag histogram.
	decidedAt map[int64]time.Duration
	// proposedAt records (on the proposer) when each slot's batch was
	// submitted, for the slot-decision-latency histogram; entries are
	// deleted on decision so memory tracks in-flight slots only.
	proposedAt map[int64]time.Duration
	// retiring holds the instances retired during the current event, which
	// may still be on the stack; deliverLocal moves them onto free, which
	// instance draws on before it builds a new one.
	retiring, free []*slotState
	// cmds is tryFlush's encode buffer and applySlot's decode buffer.
	cmds []Command

	// Serving path (leader only).
	queue    []*queuedCmd // commands awaiting a slot
	inFlight int          // slots proposed but not yet decided
	// tracked indexes queued or in-flight session'd commands so a retry
	// coalesces onto the original instead of proposing twice.
	tracked map[sessionKey]*queuedCmd
	// proposed maps an in-flight slot to its batch entries, kept until
	// apply so waiters are acknowledged only once their command executed.
	proposed map[int64][]*queuedCmd
	// pending maps a slot to the encoded batch the proposer submitted. If
	// the slot decides something else (a recovery ballot can win with the
	// NoOp proposal when the batch's phase-2 traffic was lost before
	// stabilization), the batch is re-queued for a fresh slot — commands
	// commit exactly once, possibly in a later slot. pending is volatile: a
	// proposer crash loses unacked commands, which client retry + session
	// dedup covers.
	pending     map[int64]consensus.Value
	lingerArmed bool

	// sessions is the apply-side dedup state, rebuilt from the log on
	// restart because it is only mutated while applying. clients holds its
	// keys in ascending order — the order a snapshot encodes them in — kept
	// up as clients are first seen or evicted, so no snapshot sorts the table.
	sessions map[int64]Session
	clients  []int64

	// Catch-up: maxSeen is the highest slot this replica knows exists
	// (decided locally or referenced by any peer message); while the log
	// has a gap below it, a timer asks peers for the missing decisions.
	maxSeen      int64
	catchupArmed bool
	catchupPeer  int

	// Failover (active only with cfg.FailoverTimeout > 0): epoch numbers
	// leadership; the leader of epoch e is replica e mod n, so epoch 0
	// preserves the static replica-0 leader.
	epoch          int64
	lastLeaderSeen time.Duration
	failoverArmed  bool
	// clientProcs are the client processes a promoted leader redirects:
	// those that proposed to this replica while it led, or to the leader
	// whose Beat named them.
	clientProcs []consensus.ProcessID
	// repairing tracks a takeover's log-repair window for the failover
	// span: open until applied reaches repairTarget.
	repairing    bool
	repairTarget int64

	// Compaction: snapBase is the snapshot horizon — the lowest slot still
	// present in the decision log (0 until the first snapshot). snapBuf is
	// the encode buffer successive snapshots reuse.
	snapBase int64
	snapBuf  []byte

	// Restart catch-up timing: set on a non-empty restore, resolved into
	// HistCatchupLatency once the log is gap-free after hearing a peer.
	catchupPending bool
	peerHeard      bool
	restartedAt    time.Duration

	parked []parkedQuery

	// kv is the built-in state machine used when no Applier is given.
	kv *KVStore

	mu sync.Mutex // guards kv reads from outside the event loop (tests)
}

// slotState is one slot's protocol instance and the environment it runs
// against, in one allocation that serves slot after slot (Replica.retire).
type slotState struct {
	proc *modpaxos.Process
	env  slotEnv
}

var _ consensus.Process = (*Replica)(nil)

// New returns a Factory producing RSM replicas with the built-in KV store.
func New(cfg Config) (consensus.Factory, error) {
	cfg = cfg.WithDefaults()
	inner, err := modpaxos.New(cfg.Paxos)
	if err != nil {
		return nil, fmt.Errorf("rsm: %w", err)
	}
	return func(id consensus.ProcessID, n int, _ consensus.Value) consensus.Process {
		r := &Replica{
			id: id, n: n, cfg: cfg, factory: inner,
			slots:      make(map[int64]*slotState),
			decisions:  make(map[int64]consensus.Value),
			decidedAt:  make(map[int64]time.Duration),
			proposedAt: make(map[int64]time.Duration),
			tracked:    make(map[sessionKey]*queuedCmd),
			proposed:   make(map[int64][]*queuedCmd),
			pending:    make(map[int64]consensus.Value),
			sessions:   make(map[int64]Session),
			maxSeen:    -1,
			kv:         NewKVStore(),
		}
		if cfg.NewApplier != nil {
			r.applier = cfg.NewApplier(id)
		}
		return r
	}, nil
}

// Leader returns the distinguished proposer.
func Leader() consensus.ProcessID { return 0 }

// Init implements consensus.Process.
func (r *Replica) Init(env consensus.Environment) {
	r.env = env
	if r.applier == nil {
		r.applier = r.kv
	}
	// A compaction snapshot replaces the log below its horizon: restore
	// the applier image and the complete session table first, then replay
	// only the decision records above it.
	if snap, ok := loadSnapshot(env.Store()); ok && snap.Applied > 0 {
		if snap.HasState {
			if sn, ok := r.applier.(Snapshotter); ok {
				r.mu.Lock()
				err := sn.Restore(snap.State)
				r.mu.Unlock()
				if err != nil {
					env.Logf("rsm: restore snapshot: %v", err)
				}
			}
		}
		r.restoreSessions(snap.Sessions)
		r.applied = snap.Applied
		r.snapBase = snap.Applied
		r.maxSeen = snap.Applied - 1
	}
	// Recover the rest of the decided log from its per-slot records and
	// re-apply; sessions above the horizon rebuild as a side effect.
	keys, err := env.Store().Keys()
	if err != nil {
		env.Logf("rsm: restore: %v", err)
	}
	for _, k := range keys {
		// Spilled session records cache state the snapshot + log replay
		// rebuilds (the snapshot folded every spill made before it; later
		// spills re-derive from replay), so clear them first — a stale
		// record would make replay skip re-applying its client's commands
		// to the restored state machine.
		if strings.HasPrefix(k, sessKeyPrefix) {
			if err := env.Store().Delete(k); err != nil {
				env.Logf("rsm: restore: drop %s: %v", k, err)
			}
			continue
		}
		if !strings.HasPrefix(k, slotKeyPrefix) {
			continue
		}
		slot, err := strconv.ParseInt(k[len(slotKeyPrefix):], 10, 64)
		if err != nil {
			continue
		}
		if slot < r.applied {
			// Below the snapshot horizon (a crash between snapshot write
			// and truncation): finish the truncation.
			if err := env.Store().Delete(k); err != nil {
				env.Logf("rsm: restore: truncate %s: %v", k, err)
			}
			continue
		}
		var v consensus.Value
		if ok, err := env.Store().Get(k, &v); err != nil {
			env.Logf("rsm: restore %s: %v", k, err)
		} else if ok {
			r.decisions[slot] = v
			r.maxSeen = max(r.maxSeen, slot)
		}
	}
	var next int64
	if ok, _ := env.Store().Get(storage.KeyRSMNext, &next); ok && next > r.nextSlot {
		r.nextSlot = next
	}
	// Slots assigned before a crash may have decided elsewhere; treat them
	// as known-to-exist so the catch-up protocol fills any gap.
	r.maxSeen = max(r.maxSeen, r.nextSlot-1)
	if r.maxSeen >= 0 || r.applied > 0 {
		// Non-empty restore ⇒ this is a restart: time how long until the
		// log is gap-free again (resolved into HistCatchupLatency).
		r.catchupPending = true
		r.restartedAt = env.Now()
	}
	r.applyReady()
	r.initFailover()
	// Probe peers for decisions made while this replica was down: their
	// instances may be retired (no more decision gossip), so a restarted
	// replica must ask. On a fresh cluster the probes return nothing.
	r.sendPeers(Learn{From: r.applied})
	r.deliverLocal()
}

// sendPeers sends one boxed message to every other replica of the group.
func (r *Replica) sendPeers(m consensus.Message) {
	for i := 0; i < r.n; i++ {
		if to := consensus.ProcessID(i); to != r.id {
			r.env.Send(to, m)
		}
	}
}

// HandleMessage implements consensus.Process.
func (r *Replica) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if from != r.id && int64(from) < int64(r.n) {
		r.peerHeard = true
		if r.failoverOn() && from == r.leaderID() {
			// Any traffic from the current leader is a sign of life.
			r.noteLeaderAlive()
		}
	}
	switch msg := m.(type) {
	case ClientPropose:
		r.onPropose(from, msg)
	case Query:
		r.onQuery(from, msg)
	case SlotMsg:
		r.onSlotMsg(from, msg)
	case Learn:
		r.onLearn(from, msg)
	case LearnReply:
		r.onLearnReply(from, msg)
	case Beat:
		r.onBeat(from, msg)
	case SnapshotMsg:
		r.onSnapshot(from, msg)
	case leader.Announce:
		r.onAnnounce(msg)
	}
	r.deliverLocal()
	r.resolveCatchup()
}

// deliverLocal hands the event's self-addressed slot messages, those sent
// while it runs included, to their instances in send order. A crash falls
// between events, when the queue is empty: this is a schedule the model allows.
func (r *Replica) deliverLocal() {
	for i := 0; i < len(r.local); i++ {
		r.onSlotMsg(r.id, r.local[i])
	}
	clear(r.local)
	r.local = r.local[:0]
	// No instance is on the stack any more.
	r.free = append(r.free, r.retiring...)
	r.retiring = r.retiring[:0]
}

// resolveCatchup closes the restart catch-up window once the replica has
// heard from a peer and has no known gap left — the point where it is
// provably serving the same prefix as the group again.
func (r *Replica) resolveCatchup() {
	if !r.catchupPending || !r.peerHeard || r.maxSeen >= r.applied {
		return
	}
	r.catchupPending = false
	if d := r.env.Now() - r.restartedAt; d >= 0 {
		consensus.ObserveDuration(r.env, trace.HistCatchupLatency, d)
	}
}

// HandleTimer implements consensus.Process: block 0 holds the replica's own
// timers, block slot+1 the slot instance's.
func (r *Replica) HandleTimer(id consensus.TimerID) {
	if int64(id) < timersPerSlot {
		switch id {
		case lingerTimer:
			r.lingerArmed = false
			r.tryFlush(true)
		case catchupTimer:
			r.onCatchupTimer()
		case beatTimer:
			r.onBeatTimer()
		case failoverTimer:
			r.onFailoverTimer()
		}
	} else if st, ok := r.slots[int64(id)/timersPerSlot-1]; ok {
		st.proc.HandleTimer(consensus.TimerID(int64(id) % timersPerSlot))
	}
	r.deliverLocal()
}

func (r *Replica) onPropose(from consensus.ProcessID, msg ClientPropose) {
	if r.id != r.leaderID() {
		r.env.Send(from, Redirect{Leader: r.leaderID(), Epoch: r.epoch})
		return
	}
	if r.failoverOn() {
		r.noteClient(from)
	}
	if msg.Seq != 0 {
		// Dedup: already applied → ack immediately; already queued or in
		// flight → coalesce onto the original.
		if r.ackApplied(Command{Client: msg.Client, Seq: msg.Seq, Op: msg.Cmd}, from) {
			return
		}
		if qc, ok := r.tracked[sessionKey{msg.Client, msg.Seq}]; ok {
			qc.addWaiter(from)
			return
		}
	}
	if len(r.queue) >= r.cfg.MaxQueue {
		r.env.Emit("rsm-shed", int64(len(r.queue)))
		r.env.Send(from, Busy{QueueLen: len(r.queue)})
		return
	}
	qc := &queuedCmd{
		cmd:        Command{Client: msg.Client, Seq: msg.Seq, Op: msg.Cmd},
		enqueuedAt: r.env.Now(),
	}
	qc.addWaiter(from)
	r.queue = append(r.queue, qc)
	if msg.Seq != 0 {
		r.tracked[sessionKey{msg.Client, msg.Seq}] = qc
	}
	consensus.ObserveValue(r.env, trace.HistRSMQueueDepth, int64(len(r.queue)))
	r.tryFlush(false)
}

// ackApplied acknowledges a session'd command to its waiters if the session
// table shows it applied (from slot −1 once the session has moved past it).
func (r *Replica) ackApplied(cmd Command, waiters ...consensus.ProcessID) bool {
	s, ok := r.lookupSession(cmd.Client)
	if cmd.Seq == 0 || !ok || cmd.Seq > s.Seq {
		return false
	}
	slot := int64(-1)
	if cmd.Seq == s.Seq {
		slot = s.Slot
	}
	for _, w := range waiters {
		r.env.Send(w, Committed{Slot: slot, Seq: cmd.Seq, Cmd: cmd.Op})
	}
	return true
}

// tryFlush moves queued commands into consensus instances while the
// pipeline window has room. A partial batch flushes immediately only when
// the pipeline is idle (the latency-optimal light-load path); while slots
// are in flight it waits for the next decision to coalesce more commands —
// no timer needed, a decision always arrives. With Linger set, a partial
// batch instead waits out the linger window (force is that timer firing);
// the head batch only, so a full queue still streams out.
func (r *Replica) tryFlush(force bool) {
	if r.failoverOn() && r.id != r.leaderID() {
		// Deposed mid-batch (or a stolen slot re-queued after deposition):
		// the commands belong to the new leader now.
		r.forwardQueue()
		return
	}
	for len(r.queue) > 0 && r.inFlight < r.cfg.MaxInFlight && max(r.nextSlot, r.maxSeen+1) < maxSlots {
		if !force && len(r.queue) < r.cfg.MaxBatch {
			if r.cfg.Linger > 0 {
				if wait := r.queue[0].enqueuedAt + r.cfg.Linger - r.env.Now(); wait > 0 {
					if !r.lingerArmed {
						r.lingerArmed = true
						r.env.SetTimer(lingerTimer, wait)
					}
					return
				}
			} else if r.inFlight > 0 {
				return
			}
		}
		force = false
		take := min(r.cfg.MaxBatch, len(r.queue))
		batch := make([]*queuedCmd, take)
		copy(batch, r.queue)
		r.queue = r.queue[:copy(r.queue, r.queue[take:])]

		for _, qc := range batch {
			r.cmds = append(r.cmds, qc.cmd)
		}
		val := EncodeBatch(r.cmds)
		// Done with the buffer before instance, which may re-enter tryFlush.
		clear(r.cmds)
		r.cmds = r.cmds[:0]
		slot := r.assignSlot()
		r.pending[slot] = val
		r.proposed[slot] = batch
		r.proposedAt[slot] = r.env.Now()
		r.inFlight++
		consensus.ObserveValue(r.env, trace.HistBatchSize, int64(take))
		r.slotSpan(slot, "commit", true, int64(take))
		r.claimSlot(r.instance(slot, val))
	}
	if len(r.queue) >= r.cfg.MaxBatch {
		// Window full with a whole batch still queued: no timer needed, the
		// next decision flushes it.
		return
	}
	if len(r.queue) > 0 && r.cfg.Linger > 0 && !r.lingerArmed {
		if wait := r.queue[0].enqueuedAt + r.cfg.Linger - r.env.Now(); wait > 0 {
			r.lingerArmed = true
			r.env.SetTimer(lingerTimer, wait)
		}
	}
}

// assignSlot allocates the next log slot, persisting the counter so a
// restarted proposer never reuses one. It skips every slot known to exist:
// another proposer's slot (a concurrent claimer's, or a deposed leader's
// still in flight) may already be decided, and a batch proposed into a
// decided slot would never be acknowledged. tryFlush checks the same
// maximum against maxSlots before calling it.
func (r *Replica) assignSlot() int64 {
	slot := max(r.nextSlot, r.maxSeen+1)
	r.nextSlot = slot + 1
	if err := r.env.Store().Put(storage.KeyRSMNext, r.nextSlot); err != nil {
		r.env.Logf("rsm: persist next: %v", err)
	}
	return slot
}

func (r *Replica) onQuery(from consensus.ProcessID, msg Query) {
	if msg.MinApplied > r.applied {
		// Park until the log catches up; duplicates of a retransmitted
		// query replace their older entry.
		for i := range r.parked {
			if r.parked[i].from == from && r.parked[i].q.ReqID == msg.ReqID {
				r.parked[i].q = msg
				return
			}
		}
		if len(r.parked) >= maxParkedQueries {
			r.env.Send(from, Busy{QueueLen: len(r.parked)})
			return
		}
		r.parked = append(r.parked, parkedQuery{from: from, q: msg})
		return
	}
	r.answerQuery(from, msg)
}

func (r *Replica) answerQuery(from consensus.ProcessID, msg Query) {
	r.mu.Lock()
	val, found := r.kv.Get(msg.Key)
	r.mu.Unlock()
	r.env.Send(from, QueryReply{
		Key: msg.Key, Value: val, Found: found, Applied: r.applied, ReqID: msg.ReqID,
	})
}

// flushParked answers parked queries whose watermark the log has reached.
func (r *Replica) flushParked() {
	if len(r.parked) == 0 {
		return
	}
	kept := r.parked[:0]
	for _, p := range r.parked {
		if p.q.MinApplied <= r.applied {
			r.answerQuery(p.from, p.q)
		} else {
			kept = append(kept, p)
		}
	}
	r.parked = kept
}

func (r *Replica) onSlotMsg(from consensus.ProcessID, msg SlotMsg) {
	if msg.Slot < 0 || msg.Slot >= maxSlots || msg.Inner == nil {
		return
	}
	if msg.Slot > r.maxSeen {
		r.maxSeen = msg.Slot
		r.checkCatchup()
	}
	st, live := r.slots[msg.Slot]
	if !live {
		if v, ok := r.decisions[msg.Slot]; ok {
			// Retired instance: tell the value to a peer that is asking for
			// it — a P1a comes from an undecided instance (at open, then every
			// ε), a P2a from a ballot owner still proposing. A P1b or P2b is an
			// answer to somebody else's question; its sender, if undecided,
			// asks with its own P1a within ε, and fills a gap with Learn.
			switch msg.Inner.(type) {
			case modpaxos.P1a, modpaxos.P2a:
				if from != r.id {
					r.env.Send(from, SlotMsg{Slot: msg.Slot, Inner: modpaxos.Decided{Val: v}})
				}
			}
			return
		}
		if msg.Slot < r.applied {
			// Compacted below the snapshot horizon: there is no decision
			// record left to answer from. The sender recovers via Learn,
			// which ships the snapshot for ranges below the horizon.
			return
		}
		st = r.instance(msg.Slot, NoOp)
	}
	st.proc.HandleMessage(from, msg.Inner)
}

// instance returns the slot's protocol instance, creating (and Init-ing) it
// on demand with the given proposal: a retired slot's, reset in place, when
// the free list holds one.
func (r *Replica) instance(slot int64, proposal consensus.Value) *slotState {
	if st, ok := r.slots[slot]; ok {
		return st
	}
	var st *slotState
	if k := len(r.free) - 1; k >= 0 {
		st, r.free = r.free[k], r.free[:k]
		st.proc.Recycle(proposal)
	} else {
		st = &slotState{proc: r.factory(r.id, r.n, proposal).(*modpaxos.Process)}
	}
	st.env = newSlotEnv(r, slot)
	r.slots[slot] = st
	st.proc.Init(&st.env)
	return st
}

// retire drops an applied slot's protocol instance: its environment goes
// silent and the timers it holds armed are cancelled. A peer still asking
// about the slot is answered from the decision log (onSlotMsg), and gaps
// elsewhere are filled by the Learn protocol — without this, every decided
// instance would gossip its decision forever and a long log would drown the
// event queue. The instance then serves a later slot, but only once the
// event ends (deliverLocal): it is usually still on the stack, inside the
// Decide that applied the slot and about to announce the decision and arm
// its gossip timer, while the same Decide refills the pipeline window —
// recycled at once, it would announce this slot's value as the new slot's.
// Messages and timers find an instance by slot number, so nothing addressed
// to the retired slot reaches the slot it serves next.
func (r *Replica) retire(slot int64) {
	st, ok := r.slots[slot]
	if !ok {
		return
	}
	st.env.retire()
	delete(r.slots, slot)
	r.retiring = append(r.retiring, st)
}

// onSlotDecided records a slot decision, re-queues stolen batches, applies
// ready slots, and refills the pipeline window.
func (r *Replica) onSlotDecided(slot int64, v consensus.Value) {
	if _, ok := r.decisions[slot]; ok {
		return
	}
	r.decisions[slot] = v
	if err := r.env.Store().Put(slotKey(slot), v); err != nil {
		r.env.Logf("rsm: persist slot %d: %v", slot, err)
	}
	r.maxSeen = max(r.maxSeen, slot)
	r.env.Emit("rsm-slot-decided", slot)
	r.decidedAt[slot] = r.env.Now()
	if at, ok := r.proposedAt[slot]; ok {
		if d := r.env.Now() - at; d >= 0 {
			consensus.ObserveDuration(r.env, trace.HistSlotLatency, d)
		}
		delete(r.proposedAt, slot)
	}

	if mine, ok := r.pending[slot]; ok {
		r.inFlight--
		delete(r.pending, slot)
		r.slotSpan(slot, "commit", false, 0)
		r.slotSpan(slot, "apply", true, 0)
		if mine != v {
			// The slot was stolen (typically by a NoOp recovery ballot):
			// re-queue the batch at the front for a fresh slot, waiters and
			// session tracking intact.
			batch := r.proposed[slot]
			delete(r.proposed, slot)
			r.queue = append(batch, r.queue...)
		}
	}
	r.applyReady()
	r.tryFlush(false)
}

// applyReady applies decided slots in order until the first gap,
// acknowledges the applied commands' waiters, and retires the slots'
// instances.
func (r *Replica) applyReady() {
	progressed := false
	for {
		v, ok := r.decisions[r.applied]
		if !ok {
			break
		}
		slot := r.applied
		r.applied++
		progressed = true
		if v != NoOp {
			r.applySlot(slot, v)
		}
		if batch, ok := r.proposed[slot]; ok {
			for _, qc := range batch {
				if qc.cmd.Seq != 0 {
					delete(r.tracked, sessionKey{qc.cmd.Client, qc.cmd.Seq})
				}
				for _, w := range qc.waiters {
					r.env.Send(w, Committed{Slot: slot, Seq: qc.cmd.Seq, Cmd: qc.cmd.Op})
				}
			}
			delete(r.proposed, slot)
		}
		if at, ok := r.decidedAt[slot]; ok {
			if d := r.env.Now() - at; d >= 0 {
				consensus.ObserveDuration(r.env, trace.HistApplyLag, d)
			}
			delete(r.decidedAt, slot)
		}
		r.slotSpan(slot, "apply", false, 0)
		r.retire(slot)
	}
	if progressed {
		r.flushParked()
		r.finishRepair()
		r.maybeSnapshot()
	}
	r.checkCatchup()
}

// applySlot executes one decided slot's commands in order under one hold of
// r.mu. The proposer still holds the commands of a slot that decided the
// value it proposed (onSlotDecided takes a stolen slot's batch away), so
// only the other replicas decode, once each.
func (r *Replica) applySlot(slot int64, v consensus.Value) {
	ea, _ := r.applier.(EntryApplier)
	r.mu.Lock()
	defer r.mu.Unlock()
	if batch, ok := r.proposed[slot]; ok {
		for i, qc := range batch {
			r.applyCommand(ea, slot, i, qc.cmd)
		}
		return
	}
	r.cmds = appendBatch(r.cmds, v)
	for i, cmd := range r.cmds {
		r.applyCommand(ea, slot, i, cmd)
	}
	clear(r.cmds) // the ops share v's bytes
	r.cmds = r.cmds[:0]
}

// applyCommand executes one command unless its session already applied it,
// and records the session.
func (r *Replica) applyCommand(ea EntryApplier, slot int64, idx int, cmd Command) {
	if cmd.Seq != 0 {
		if s, ok := r.lookupSession(cmd.Client); ok && s.Seq >= cmd.Seq {
			return // duplicate of an applied op
		}
	}
	if ea != nil {
		ea.ApplyEntry(slot, idx, cmd)
	} else {
		r.applier.Apply(slot, cmd.Op)
	}
	if cmd.Seq != 0 {
		r.recordSession(cmd.Client, Session{Seq: cmd.Seq, Slot: slot})
	}
}

// checkCatchup arms the catch-up timer while the log has a gap below a slot
// known to exist. Idle replicas keep no timer armed.
func (r *Replica) checkCatchup() {
	if r.catchupArmed || r.env == nil {
		return
	}
	if r.maxSeen < r.applied {
		return
	}
	if _, ok := r.decisions[r.applied]; ok {
		return // applyReady will consume it
	}
	r.catchupArmed = true
	r.env.SetTimer(catchupTimer, r.catchupInterval())
}

func (r *Replica) catchupInterval() time.Duration {
	if g := r.cfg.Paxos.GossipInterval; g > 0 {
		return g
	}
	return 2 * r.cfg.Paxos.Delta
}

func (r *Replica) onCatchupTimer() {
	r.catchupArmed = false
	if r.maxSeen < r.applied {
		return
	}
	if _, ok := r.decisions[r.applied]; ok {
		return
	}
	// Ask one peer (rotating) for everything from the gap up.
	for i := 0; i < r.n; i++ {
		r.catchupPeer = (r.catchupPeer + 1) % r.n
		if consensus.ProcessID(r.catchupPeer) != r.id {
			break
		}
	}
	r.env.Send(consensus.ProcessID(r.catchupPeer), Learn{From: r.applied})
	// Open the gap's lowest instances (a follower's opens silently, so a slot
	// whose messages were all lost has none): their ε heartbeats ask the peers.
	for slot, opened := r.applied, 0; slot <= r.maxSeen && opened < learnChunk; slot++ {
		if _, ok := r.decisions[slot]; !ok && r.slots[slot] == nil {
			r.instance(slot, NoOp)
			opened++
		}
	}
	r.catchupArmed = true
	r.env.SetTimer(catchupTimer, r.catchupInterval())
}

func (r *Replica) onLearn(from consensus.ProcessID, msg Learn) {
	if msg.From < 0 {
		return
	}
	if msg.From < r.snapBase {
		// The requested range is below our compaction horizon: ship the
		// snapshot instead of slot records we no longer have.
		if snap, ok := loadSnapshot(r.env.Store()); ok {
			r.env.Send(from, SnapshotMsg{Snap: snap})
		}
		return
	}
	var entries []SlotValue
	for slot := msg.From; slot <= r.maxSeen && len(entries) < learnChunk; slot++ {
		if v, ok := r.decisions[slot]; ok {
			entries = append(entries, SlotValue{Slot: slot, Val: v})
		}
	}
	if len(entries) > 0 {
		r.env.Send(from, LearnReply{Entries: entries})
	}
}

func (r *Replica) onLearnReply(from consensus.ProcessID, msg LearnReply) {
	before := r.applied
	for _, e := range msg.Entries {
		if e.Slot < 0 || e.Slot >= maxSlots {
			continue
		}
		if _, ok := r.decisions[e.Slot]; !ok {
			r.onSlotDecided(e.Slot, e.Val)
		}
	}
	// A full chunk that made progress means there is probably more: keep
	// streaming from the same peer without waiting for the timer.
	if len(msg.Entries) == learnChunk && r.applied > before {
		r.env.Send(from, Learn{From: r.applied})
	}
}

// slotKey is the stable-storage key of one slot's decision.
func slotKey(slot int64) string { return slotKeyPrefix + strconv.FormatInt(slot, 10) }

// spansOn reports whether the environment records spans, gating the
// per-slot kind formatting.
func (r *Replica) spansOn() bool {
	if en, ok := r.env.(spanEnabler); ok {
		return en.SpansEnabled()
	}
	return false
}

// slotSpan emits a slot-lane span ("slotN-commit", "slotN-apply") on the
// proposer, giving the timeline one lane per pipelined slot.
func (r *Replica) slotSpan(slot int64, kind string, begin bool, value int64) {
	if r.id != r.leaderID() || !r.spansOn() {
		return
	}
	if sink, ok := r.env.(consensus.SpanSink); ok {
		sink.Span(fmt.Sprintf("slot%d-%s", slot, kind), begin, value)
	}
}

// Applied returns the number of contiguous applied slots (safe from the
// event loop; tests use Query instead).
func (r *Replica) Applied() int64 { return r.applied }

// QueueLen returns the current proposal-queue depth (leader only; test
// observability).
func (r *Replica) QueueLen() int { return len(r.queue) }

// InFlight returns the number of undecided proposed slots (leader only;
// test observability).
func (r *Replica) InFlight() int { return r.inFlight }

// KVStore is the built-in "set key value" state machine.
type KVStore struct {
	data map[string]string
	log  []consensus.Value
}

// NewKVStore returns an empty store.
func NewKVStore() *KVStore { return &KVStore{data: make(map[string]string)} }

var _ Applier = (*KVStore)(nil)

// Apply implements Applier: commands are "set <key> <value>"; anything else
// is appended to the raw log only.
func (s *KVStore) Apply(_ int64, cmd consensus.Value) {
	s.log = append(s.log, cmd)
	fields := strings.Fields(string(cmd))
	if len(fields) == 3 && fields[0] == "set" {
		s.data[fields[1]] = fields[2]
	}
}

// Get returns the applied value of a key.
func (s *KVStore) Get(key string) (string, bool) {
	v, ok := s.data[key]
	return v, ok
}

// Log returns the applied command log.
func (s *KVStore) Log() []consensus.Value {
	out := make([]consensus.Value, len(s.log))
	copy(out, s.log)
	return out
}
