// Package trace collects events and metrics from a consensus run: message
// counts by type, per-process decision times, and arbitrary named time
// series (session numbers, round numbers) that the experiments plot.
//
// A single Collector is shared by all nodes of a run. It is safe for
// concurrent use so the live goroutine runtime can share it; under the
// single-threaded simulator the locking is uncontended.
package trace

import (
	"sort"
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
// Messages are counted in one table of interned message types, written the
// same way by both substrates: Intern maps a type name to a dense ID, and
// SentID/DeliveredID/DroppedID (and the batched SentIDN/DroppedIDN) add to
// that type's counters atomically. The single-threaded simulator and the
// live runtime's goroutines call the same methods, and every reader reads
// the one table.
//
// The table is published through one atomic pointer to data that is never
// written after it is published, so Intern finds a name without a lock and
// takes mu only the first time it sees one. Each type's counters are
// allocated apart from the rows Intern scans (see typeCounts), so a counter
// add on one goroutine does not evict the table that every other
// goroutine's Intern reads.
type Collector struct {
	mu sync.Mutex

	types     atomic.Pointer[typeTable]
	series    map[string][]Sample
	observers []func(kind string, s Sample)

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
	histOn bool
	hists  map[string]*Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// The columns of a typeCounts.
const (
	colSent = iota
	colDelivered
	colDropped
	numCols
)

// typeCounts is one message type's counters and, once a delivery of the
// type is observed, its delivery-latency histogram (guarded by
// Collector.mu). At 32 bytes it is in another size class than the 24-byte
// typeTable and the rows arrays (192 bytes and up), so no counter shares a
// cache line with what Intern reads.
type typeCounts struct {
	n    [numCols]atomic.Int64
	hist *Histogram
}

// typeRow is one interned message type. A type's ID is its row's index.
type typeRow struct {
	name   string
	counts *typeCounts
}

// typeTable is one published version of the message-type table. Neither
// it nor rows is written after it is published; a new type publishes a new
// typeTable whose rows extend the old ones, in place while the backing
// array has room.
type typeTable struct {
	rows []typeRow
}

// firstTableRows is the first backing array's capacity: room for a
// protocol's message set, so interning it costs one array.
const firstTableRows = 8

// rows returns the current table's rows (nil before the first Intern).
func (c *Collector) rows() []typeRow {
	if tab := c.types.Load(); tab != nil {
		return tab.rows
	}
	return nil
}

// Intern returns the dense ID of a message-type name, assigning the next ID
// on a name's first use, so IDs run in first-seen order. It is safe for
// concurrent use and lock-free for a name already in the table.
//
// A run interns a handful of names (a protocol's message set) and a message
// answers Type() with the same constant every time, so the name is looked
// for in the table in place, by identity first: same bytes at the same
// address. The simulator asks once per routed message, where that is a
// third of hashing the name and probing a map.
func (c *Collector) Intern(name string) int {
	p := unsafe.StringData(name)
	rows := c.rows()
	for id := range rows {
		if known := rows[id].name; unsafe.StringData(known) == p && len(known) == len(name) {
			return id
		}
	}
	return c.internByValue(name)
}

// find returns the ID of name in rows by value, or -1.
func find(rows []typeRow, name string) int {
	for id := range rows {
		if rows[id].name == name {
			return id
		}
	}
	return -1
}

// internByValue is Intern for a name built at run time or not seen before.
// A new name is added under mu, after a second look: another goroutine may
// have added it while this one waited.
func (c *Collector) internByValue(name string) int {
	if id := find(c.rows(), name); id >= 0 {
		return id
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rows := c.rows()
	if id := find(rows, name); id >= 0 {
		return id
	}
	if rows == nil {
		rows = make([]typeRow, 0, firstTableRows)
	}
	rows = append(rows, typeRow{name: name, counts: new(typeCounts)})
	c.types.Store(&typeTable{rows: rows})
	return len(rows) - 1
}

// counts returns the counters of an interned type.
func (c *Collector) counts(id int) *typeCounts { return c.types.Load().rows[id].counts }

// SentID records a send of an interned message type.
func (c *Collector) SentID(id int) { c.counts(id).n[colSent].Add(1) }

// DeliveredID records a delivery.
func (c *Collector) DeliveredID(id int) { c.counts(id).n[colDelivered].Add(1) }

// DroppedID records a message lost in transit or arriving at a crashed
// process.
func (c *Collector) DroppedID(id int) { c.counts(id).n[colDropped].Add(1) }

// SentIDN records n sends of one type in a single add — the batched
// broadcast path's O(1) accounting.
func (c *Collector) SentIDN(id, n int) { c.counts(id).n[colSent].Add(int64(n)) }

// DroppedIDN records n drops of one type in a single add.
func (c *Collector) DroppedIDN(id, n int) { c.counts(id).n[colDropped].Add(int64(n)) }

// MessageSent records a send of the named type: Intern and SentID in one
// call. Its one caller is the benchmark's trace-counter layer
// (bench/layers.go); it goes when that layer is rewritten on IDs.
func (c *Collector) MessageSent(msgType string) { c.SentID(c.Intern(msgType)) }

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
func (c *Collector) TotalSent() int { return c.total(colSent) }

// TotalDropped returns the total number of messages dropped.
func (c *Collector) TotalDropped() int { return c.total(colDropped) }

// total sums one column over every type.
func (c *Collector) total(col int) int {
	sum := 0
	for _, r := range c.rows() {
		sum += int(r.counts.n[col].Load())
	}
	return sum
}

// TypeCount is one entry of a sorted per-type counts listing.
type TypeCount struct {
	Type  string `json:"type"`
	Count int    `json:"count"`
}

// column lists one column's non-zero counts sorted by type name: a type
// only ever delivered, or interned and never used, must not surface as
// "type: 0" among the sends.
func (c *Collector) column(col int) []TypeCount {
	rows := c.rows()
	out := make([]TypeCount, 0, len(rows))
	for _, r := range rows {
		if v := r.counts.n[col].Load(); v != 0 {
			out = append(out, TypeCount{Type: r.name, Count: int(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// SentByType returns a copy of the per-type send counts.
func (c *Collector) SentByType() map[string]int {
	rows := c.rows()
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		if v := r.counts.n[colSent].Load(); v != 0 {
			out[r.name] = int(v)
		}
	}
	return out
}

// SentCounts returns the per-type send counts sorted by type name — the
// deterministically ordered form of SentByType, for renderers and tests
// that iterate.
func (c *Collector) SentCounts() []TypeCount { return c.column(colSent) }

// DeliveredCounts returns the per-type delivery counts sorted by type name.
func (c *Collector) DeliveredCounts() []TypeCount { return c.column(colDelivered) }

// DroppedCounts returns the per-type drop counts sorted by type name.
func (c *Collector) DroppedCounts() []TypeCount { return c.column(colDropped) }

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
