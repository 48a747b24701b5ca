// Package trace collects events and metrics from a consensus run: message
// counts by type, per-process decision times, and arbitrary named time
// series (session numbers, round numbers) that the experiments plot.
//
// A single Collector is shared by all nodes of a run. It is safe for
// concurrent use so the live goroutine runtime can share it; under the
// single-threaded simulator the locking is uncontended.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Sample is one observation in a named time series.
type Sample struct {
	// At is the global time of the observation.
	At time.Duration
	// Proc is the observing process.
	Proc int
	// Value is the observed value (for example a session number).
	Value int64
}

// Collector accumulates the events of one run. The zero value is ready to
// use.
//
// Message counting has two write paths. The single-threaded simulator
// interns message-type strings into dense IDs (Intern) and bumps plain
// per-ID counters (SentID/DeliveredID/DroppedID) — no lock, no map, no
// allocation per message. The live goroutine runtime calls the string-keyed
// methods (MessageSent/MessageDelivered/MessageDropped) from many
// goroutines at once: a lock-free lookup of the type name in a read-only
// table and an atomic add, with the lock taken only the first time a name
// is seen. Every reader merges both tables, so reports are identical
// whichever substrate fed the collector.
type Collector struct {
	mu sync.Mutex

	// byName is the string-keyed path's table. The map it points to is
	// never written after it is published; a new type name replaces it with
	// a copy, under mu.
	byName    atomic.Pointer[map[string]*typeCounters]
	series    map[string][]Sample
	observers []func(kind string, s Sample)

	// Interned counter table: a type name's dense ID is its index in types
	// and in the three counter slices. Written only by the single-threaded
	// sim backend; see Intern.
	types       []string
	sentByID    []int64
	deliveredID []int64
	droppedByID []int64

	// Span ring (span.go). spansOn gates emission with a plain bool read;
	// it must be set (EnableSpans) before the run starts. spanTotal counts
	// every record ever written, so wraparound drops are observable.
	spansOn       bool
	spanBuf       []SpanEvent
	spanHead      int
	spanTotal     uint64
	spanKindIDs   map[string]int32
	spanKindNames []string

	// Histogram registry (hist.go). histOn gates observation like spansOn.
	// histIDs/histByID form the sim-only interned fast path, mirroring the
	// message-type counter table above.
	histOn   bool
	hists    map[string]*Histogram
	histIDs  map[string]int
	histByID []*Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Intern returns the dense counter ID for a message-type name, assigning
// the next ID on first use. The interned fast path is deliberately
// lock-free: only the deterministic simulator — a single goroutine — calls
// Intern and the per-ID increment methods, and its results are read after
// the run completes. Concurrent writers (the live runtime) must use the
// string-keyed methods instead.
//
// A run interns a handful of names (a protocol's message set) and a message
// answers Type() with the same constant every time, so the name is looked
// for in the table in place, by identity first: same bytes at the same
// address. The simulator asks once per routed message, where that is a
// third of hashing the name and probing a map.
func (c *Collector) Intern(name string) int {
	p := unsafe.StringData(name)
	for id, known := range c.types {
		if unsafe.StringData(known) == p && len(known) == len(name) {
			return id
		}
	}
	return c.internByValue(name)
}

// internByValue is Intern for a name built at run time or not seen before.
func (c *Collector) internByValue(name string) int {
	for id, known := range c.types {
		if known == name {
			return id
		}
	}
	id := len(c.types)
	c.types = append(c.types, name)
	c.sentByID = append(c.sentByID, 0)
	c.deliveredID = append(c.deliveredID, 0)
	c.droppedByID = append(c.droppedByID, 0)
	return id
}

// TypeName resolves an interned message-type ID (sim backend only; the
// table is written lock-free by Intern).
func (c *Collector) TypeName(id int) string {
	if id < 0 || id >= len(c.types) {
		return ""
	}
	return c.types[id]
}

// SentID records a send on the interned fast path (sim backend only).
func (c *Collector) SentID(id int) { c.sentByID[id]++ }

// DeliveredID records a delivery on the interned fast path.
func (c *Collector) DeliveredID(id int) { c.deliveredID[id]++ }

// DroppedID records a drop on the interned fast path.
func (c *Collector) DroppedID(id int) { c.droppedByID[id]++ }

// SentIDN records n sends of one type in a single increment — the batched
// broadcast path's O(1) accounting (sim backend only).
func (c *Collector) SentIDN(id, n int) { c.sentByID[id] += int64(n) }

// DroppedIDN records n drops of one type in a single increment.
func (c *Collector) DroppedIDN(id, n int) { c.droppedByID[id] += int64(n) }

// The columns of a typeCounters.
const (
	colSent = iota
	colDelivered
	colDropped
	numCols
)

// typeCounters holds one message type's counts on the string-keyed path.
type typeCounters [numCols]atomic.Int64

// counters returns the counters of a message type: a map read when the
// name has been seen before, a locked copy of the table when it has not.
func (c *Collector) counters(msgType string) *typeCounters {
	if tc := c.table()[msgType]; tc != nil {
		return tc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.table()
	if tc := old[msgType]; tc != nil {
		return tc // another goroutine added it while this one waited
	}
	next := make(map[string]*typeCounters, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	tc := new(typeCounters)
	next[msgType] = tc
	c.byName.Store(&next)
	return tc
}

// MessageSent records that a message of the given type was handed to the
// network.
func (c *Collector) MessageSent(msgType string) { c.counters(msgType)[colSent].Add(1) }

// MessageDelivered records a successful delivery.
func (c *Collector) MessageDelivered(msgType string) { c.counters(msgType)[colDelivered].Add(1) }

// MessageDropped records a message lost in transit or arriving at a crashed
// process.
func (c *Collector) MessageDropped(msgType string) { c.counters(msgType)[colDropped].Add(1) }

// Emit appends an observation to the named series.
func (c *Collector) Emit(at time.Duration, proc int, kind string, value int64) {
	s := Sample{At: at, Proc: proc, Value: value}
	c.mu.Lock()
	if c.series == nil {
		c.series = make(map[string][]Sample)
	}
	c.series[kind] = append(c.series[kind], s)
	obs := c.observers
	c.mu.Unlock()
	// Observers run outside the lock so they may re-enter the collector
	// (e.g. a fault schedule crashing the emitting process, which drops
	// messages and records the drops here).
	for _, fn := range obs {
		fn(kind, s)
	}
}

// OnEmit registers an observer called synchronously on every Emit. The
// scenario engine's fault schedules use this to react to protocol progress
// (a process entering a round or session) without protocol-specific wiring.
func (c *Collector) OnEmit(fn func(kind string, s Sample)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observers = append(c.observers, fn)
}

// TotalSent returns the total number of messages sent.
func (c *Collector) TotalSent() int { return c.total(colSent, c.sentByID) }

// TotalDropped returns the total number of messages dropped.
func (c *Collector) TotalDropped() int { return c.total(colDropped, c.droppedByID) }

// total sums one column of the string-keyed table and an interned column.
func (c *Collector) total(col int, byID []int64) int {
	sum := 0
	for _, tc := range c.table() {
		sum += int(tc[col].Load())
	}
	for _, n := range byID {
		sum += int(n)
	}
	return sum
}

// table returns the current string-keyed table (nil before the first call
// of a string-keyed method). It is read-only.
func (c *Collector) table() map[string]*typeCounters {
	if tab := c.byName.Load(); tab != nil {
		return *tab
	}
	return nil
}

// merged returns the union of one column of the string-keyed table and an
// interned counter column, skipping zero entries (a type only ever
// delivered, or pre-interned and never used, must not surface as "type: 0"
// among the sends).
func (c *Collector) merged(col int, byID []int64) map[string]int {
	tab := c.table()
	out := make(map[string]int, len(tab)+len(byID))
	for name, tc := range tab {
		if v := tc[col].Load(); v != 0 {
			out[name] = int(v)
		}
	}
	for id, v := range byID {
		if v != 0 {
			out[c.types[id]] += int(v)
		}
	}
	return out
}

// SentByType returns a copy of the per-type send counts.
func (c *Collector) SentByType() map[string]int { return c.merged(colSent, c.sentByID) }

// DeliveredByType returns a copy of the per-type delivery counts.
func (c *Collector) DeliveredByType() map[string]int { return c.merged(colDelivered, c.deliveredID) }

// DroppedByType returns a copy of the per-type drop counts.
func (c *Collector) DroppedByType() map[string]int { return c.merged(colDropped, c.droppedByID) }

// TypeCount is one entry of a sorted per-type counts listing.
type TypeCount struct {
	Type  string `json:"type"`
	Count int    `json:"count"`
}

// sortedCounts renders a counts map as a name-sorted slice.
func sortedCounts(m map[string]int) []TypeCount {
	out := make([]TypeCount, 0, len(m))
	for k, v := range m {
		out = append(out, TypeCount{Type: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// SentCounts returns the per-type send counts sorted by type name — the
// deterministically ordered form of SentByType, for renderers and tests
// that iterate.
func (c *Collector) SentCounts() []TypeCount {
	return sortedCounts(c.SentByType())
}

// DeliveredCounts returns the per-type delivery counts sorted by type name.
func (c *Collector) DeliveredCounts() []TypeCount {
	return sortedCounts(c.DeliveredByType())
}

// DroppedCounts returns the per-type drop counts sorted by type name.
func (c *Collector) DroppedCounts() []TypeCount {
	return sortedCounts(c.DroppedByType())
}

// SentBetween returns how many send events of series-agnostic messages
// occurred; the network calls MessageSent once per Send, so rates over an
// interval are computed by the caller from snapshots.
func (c *Collector) SentBetween(before, after map[string]int) int {
	total := 0
	for k, v := range after {
		total += v - before[k]
	}
	return total
}

// Series returns a copy of the named time series ordered by observation
// time (stable, so samples at the same instant keep emission order). Under
// the simulator emission order already is time order; under the live
// runtime concurrent writers append in scheduler order, and the sort makes
// the returned series deterministic in content, not in race outcome.
func (c *Collector) Series(kind string) []Sample {
	c.mu.Lock()
	s := c.series[kind]
	out := make([]Sample, len(s))
	copy(out, s)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// SeriesNames returns the names of all emitted series, sorted.
func (c *Collector) SeriesNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.series))
	for k := range c.series {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MaxSeriesValueAt returns the maximum value observed in the named series at
// or before the given time, and whether any observation exists.
func (c *Collector) MaxSeriesValueAt(kind string, at time.Duration) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best int64
	found := false
	for _, s := range c.series[kind] {
		if s.At <= at && (!found || s.Value > best) {
			best = s.Value
			found = true
		}
	}
	return best, found
}

// MessageReport formats the send/deliver/drop counts as a small table.
// While a live cluster is still feeding the collector each count is exact
// for the instant it was read, but the columns are read one after another.
func (c *Collector) MessageReport() string {
	sent := c.merged(colSent, c.sentByID)
	delivered := c.merged(colDelivered, c.deliveredID)
	dropped := c.merged(colDropped, c.droppedByID)
	types := make(map[string]bool)
	for k := range sent {
		types[k] = true
	}
	for k := range delivered {
		// Delivered-only types exist: oracle/adversary Inject traffic is
		// not a protocol send but must still show in the table.
		types[k] = true
	}
	for k := range dropped {
		types[k] = true
	}
	names := make([]string, 0, len(types))
	for k := range types {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %8s\n", "type", "sent", "delivered", "dropped")
	for _, k := range names {
		fmt.Fprintf(&b, "%-14s %8d %10d %8d\n", k, sent[k], delivered[k], dropped[k])
	}
	return b.String()
}
