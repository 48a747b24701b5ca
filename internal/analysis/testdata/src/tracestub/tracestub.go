// Package tracestub is a fixture stand-in for internal/trace: a Collector
// exposing both the string-keyed slow path and the interned dense
// fast path, so tracelint fixtures type-check without dragging in the real
// collector. tracelint matches the type by the "/tracestub" path suffix.
package tracestub

// Collector mirrors the two write APIs of trace.Collector.
type Collector struct {
	counts []int64
}

// Slow path (string-keyed; all but the three message counters also lock
// the real collector).

func (c *Collector) MessageSent(name string)             {}
func (c *Collector) MessageDelivered(name string)        {}
func (c *Collector) MessageDropped(name string)          {}
func (c *Collector) ObserveLatency(name string, v int64) {}
func (c *Collector) ObserveValue(name string, v int64)   {}
func (c *Collector) Emit(kind string, v int64)           {}
func (c *Collector) Logf(format string, args ...any)     {}

// Fast path (interned dense IDs).

func (c *Collector) Intern(name string) int {
	c.counts = append(c.counts, 0)
	return len(c.counts) - 1
}
func (c *Collector) SentID(id int)      { c.counts[id]++ }
func (c *Collector) DeliveredID(id int) { c.counts[id]++ }
func (c *Collector) DroppedID(id int)   { c.counts[id]++ }
