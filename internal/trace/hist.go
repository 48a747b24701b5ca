package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// HistBuckets is the fixed bucket count of every Histogram. Buckets are
// powers of two: bucket 0 holds values ≤ 0, bucket i (i ≥ 1) holds values in
// [2^(i−1), 2^i). With nanosecond values the top bucket starts around 73
// years, so no realistic observation clamps.
const HistBuckets = 62

// Histogram is a fixed-bucket histogram over int64 observations
// (nanoseconds for latencies, raw counts for depths). The fixed layout makes
// histograms mergeable: two histograms over the same quantity can be added
// bucket-wise, so per-run shards aggregate exactly into per-protocol or
// per-grid-cell quantiles — unlike percentiles, which cannot be averaged.
//
// The zero value is an empty histogram ready to use. Histogram is not
// internally synchronized; the Collector serializes access for its own
// histograms.
type Histogram struct {
	unit   string
	count  int64
	sum    int64
	min    int64
	max    int64
	counts [HistBuckets]int64
}

// The histogram names emitted by this repository's instrumentation, so the
// substrates and the report aggregators agree on spelling.
const (
	// HistDecideLatency is per-process decision latency after TS (clamped
	// at zero), the paper's headline metric. Both substrates observe it, so
	// scenario reports aggregate p50/p95/p99 identically for sim and live.
	HistDecideLatency = "decide-latency"
	// HistQueueDepth is the simulator event-queue depth sampled at each
	// send.
	HistQueueDepth = "queue-depth"
	// HistDeliveryPrefix prefixes per-message-type delivery latency
	// histograms ("delivery/p1a").
	HistDeliveryPrefix = "delivery/"
	// HistSlotLatency is the RSM's per-slot propose-to-decide latency.
	HistSlotLatency = "rsm-slot-latency"
	// HistCommitLatency is the RSM client-path submit-to-ack latency per
	// operation (the rsm-bench headline quantiles).
	HistCommitLatency = "rsm-commit-latency"
	// HistApplyLag is the RSM's per-slot decide-to-apply lag (time spent
	// waiting for earlier pipelined slots to fill the gap).
	HistApplyLag = "rsm-apply-lag"
	// HistBatchSize is the number of client commands coalesced per RSM slot.
	HistBatchSize = "rsm-batch-size"
	// HistRSMQueueDepth is the RSM leader's proposal-queue depth at each
	// enqueue.
	HistRSMQueueDepth = "rsm-queue-depth"
	// HistOutage is the client-observed outage of an RSM crash: for each
	// crash in an rsm-bench schedule and each client, the time from the
	// crash instant to that client's first ack after it, whether or not
	// the failover had a slot to repair.
	HistOutage = "rsm-outage"
	// HistCatchupLatency is the time a restarted RSM replica takes to
	// become gap-free again (snapshot install + Learn replay), measured
	// from its own re-Init to the first moment it has applied every slot
	// it knows to exist after hearing from a peer.
	HistCatchupLatency = "rsm-catchup-latency"
	// HistInboxWait is the live runtime's enqueue-to-handle wait per
	// message (wall-clock receive-side queuing).
	HistInboxWait = "inbox-wait"
	// HistInboxDepth is the live runtime's inbox depth at each enqueue.
	HistInboxDepth = "inbox-depth"
	// HistSendInterval is the live runtime's wall-clock gap between
	// consecutive sends of one process.
	HistSendInterval = "send-interval"
)

// The units histograms are observed in.
const (
	// UnitNanos marks duration-valued histograms (stored as nanoseconds).
	UnitNanos = "ns"
	// UnitCount marks dimensionless histograms (queue depths, sizes).
	UnitCount = "count"
)

// NewHistogram returns an empty histogram carrying a unit label.
func NewHistogram(unit string) *Histogram { return &Histogram{unit: unit} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	// v in [2^(k), 2^(k+1)) has bit length k+1 and lands in bucket k+1.
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketBounds returns bucket i's half-open value range [lo, hi).
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return math.MinInt64, 1
	}
	if i >= HistBuckets-1 {
		return 1 << (HistBuckets - 2), math.MaxInt64
	}
	return 1 << (i - 1), 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// ObserveDuration records a duration observation (nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Unit returns the histogram's unit label.
func (h *Histogram) Unit() string { return h.unit }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// BucketCount returns the observation count of bucket i.
func (h *Histogram) BucketCount(i int) int64 {
	if i < 0 || i >= HistBuckets {
		return 0
	}
	return h.counts[i]
}

// Merge adds o's state into h. Merging shard histograms of the same quantity
// yields exactly the histogram of the concatenated samples: bucket counts,
// count, sum, min, and max are all exact (only quantile interpolation within
// a bucket stays approximate, as it is for any single histogram). It returns
// an error when the units disagree — merging a latency into a depth
// histogram is a caller bug worth surfacing.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if h.unit == "" {
		h.unit = o.unit
	} else if o.unit != "" && o.unit != h.unit {
		return fmt.Errorf("trace: merging %q histogram into %q histogram", o.unit, h.unit)
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	return nil
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank, clamped to the observed
// [Min, Max]. The estimate is deterministic in the bucket counts, so merged
// shards report identical quantiles regardless of merge order.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// 1-based target rank.
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := BucketBounds(i)
		if lo < h.min {
			lo = h.min
		}
		if hi > h.max {
			hi = h.max
		}
		if hi <= lo {
			return clampInt64(lo, h.min, h.max)
		}
		// Position of the target rank within this bucket, interpolated
		// across the bucket's clamped value range.
		frac := float64(rank-cum) / float64(c)
		est := float64(lo) + frac*float64(hi-lo)
		return clampInt64(int64(est), h.min, h.max)
	}
	return h.max
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HistogramBucket is one non-empty bucket of a snapshot.
type HistogramBucket struct {
	// Lo and Hi are the bucket's half-open value range [Lo, Hi).
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// HistogramSnapshot is an immutable, JSON-friendly view of a histogram.
// Grid reports embed these, so the field set is part of the pinned report
// schema.
type HistogramSnapshot struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Count int64  `json:"count"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
	// Buckets lists the non-empty buckets in value order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot renders the histogram under the given name.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name: name, Unit: h.unit,
		Count: h.count, Min: h.min, Max: h.max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		s.Buckets = append(s.Buckets, HistogramBucket{Lo: lo, Hi: hi, Count: c})
	}
	return s
}

// format renders a snapshot value in its unit.
func (s HistogramSnapshot) format(v int64) string {
	if s.Unit == UnitNanos {
		return time.Duration(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// String renders the headline statistics on one line.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("%s: n=%d p50=%s p95=%s p99=%s max=%s",
		s.Name, s.Count, s.format(s.P50), s.format(s.P95), s.format(s.P99), s.format(s.Max))
}

// --- Collector integration ---

// EnableHistograms turns on histogram collection. Call it before the run
// starts feeding the collector: the per-observation gate (HistogramsEnabled)
// is a plain flag read, unsynchronized against this write.
func (c *Collector) EnableHistograms() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.histOn = true
}

// HistogramsEnabled reports whether histogram collection is on. It is the
// hot-path gate: a plain bool read so the disabled path costs nothing and
// allocates nothing.
func (c *Collector) HistogramsEnabled() bool { return c.histOn }

// histogram returns (creating on demand) the named histogram. Caller holds
// c.mu.
func (c *Collector) histogramLocked(name, unit string) *Histogram {
	if h, ok := c.hists[name]; ok {
		return h
	}
	if c.hists == nil {
		c.hists = make(map[string]*Histogram, 8)
	}
	h := NewHistogram(unit)
	c.hists[name] = h
	return h
}

// ObserveLatency records a duration observation into the named histogram
// (created with UnitNanos on first use). No-op unless EnableHistograms was
// called. Safe for concurrent use (the live runtime's write path).
func (c *Collector) ObserveLatency(name string, d time.Duration) {
	if !c.histOn {
		return
	}
	c.mu.Lock()
	c.histogramLocked(name, UnitNanos).Observe(int64(d))
	c.mu.Unlock()
}

// ObserveValue records a dimensionless observation (queue depth, size) into
// the named histogram (created with UnitCount on first use). No-op unless
// EnableHistograms was called.
func (c *Collector) ObserveValue(name string, v int64) {
	if !c.histOn {
		return
	}
	c.mu.Lock()
	c.histogramLocked(name, UnitCount).Observe(v)
	c.mu.Unlock()
}

// ObserveDelivery records the delivery latency of a message of an
// interned type into the type's histogram, HistDeliveryPrefix plus the type
// name (created with UnitNanos on first use and kept with the type's
// counters). No-op unless EnableHistograms was called. Safe for concurrent
// use; both substrates observe delivery latency through it.
func (c *Collector) ObserveDelivery(id int, d time.Duration) {
	if !c.histOn {
		return
	}
	r := c.types.Load().rows[id]
	c.mu.Lock()
	if r.counts.hist == nil {
		r.counts.hist = c.histogramLocked(HistDeliveryPrefix+r.name, UnitNanos)
	}
	r.counts.hist.Observe(int64(d))
	c.mu.Unlock()
}

// HistogramNames returns the names of all histograms, sorted.
func (c *Collector) HistogramNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.hists))
	for k := range c.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// HistogramCopy returns a value copy of the named histogram, and whether it
// exists with at least one observation.
func (c *Collector) HistogramCopy(name string) (Histogram, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok || h.count == 0 {
		return Histogram{}, false
	}
	return *h, true
}

// HistogramSnapshots returns snapshots of every non-empty histogram, sorted
// by name — deterministic output whichever substrate fed the collector.
func (c *Collector) HistogramSnapshots() []HistogramSnapshot {
	c.mu.Lock()
	names := make([]string, 0, len(c.hists))
	for k, h := range c.hists {
		if h.count > 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	out := make([]HistogramSnapshot, 0, len(names))
	for _, k := range names {
		out = append(out, c.hists[k].Snapshot(k))
	}
	c.mu.Unlock()
	return out
}
