package trace

import (
	"math/rand"
	"testing"
	"time"
)

// TestHistogramBucketing pins the bucket layout: bucket 0 holds v ≤ 0,
// bucket i holds [2^(i-1), 2^i), and BucketBounds agrees with bucketOf on
// every boundary.
func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41}, {1<<62 - 1, HistBuckets - 1}, {1 << 62, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for i := 1; i < HistBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		if bucketOf(lo) != i {
			t.Errorf("bucket %d: lower bound %d maps to bucket %d", i, lo, bucketOf(lo))
		}
		if bucketOf(hi-1) != i {
			t.Errorf("bucket %d: last value %d maps to bucket %d", i, hi-1, bucketOf(hi-1))
		}
		if bucketOf(hi) != i+1 {
			t.Errorf("bucket %d: upper bound %d maps to bucket %d, want %d", i, hi, bucketOf(hi), i+1)
		}
	}
}

// TestHistogramMergeExactness verifies the headline property the grid
// aggregation relies on: merging per-run shards is *exactly* the histogram
// of the concatenated samples — identical count, sum, min, max, and every
// bucket count — not an approximation.
func TestHistogramMergeExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const shards = 5
	parts := make([]*Histogram, shards)
	for i := range parts {
		parts[i] = NewHistogram(UnitNanos)
	}
	whole := NewHistogram(UnitNanos)
	for i := 0; i < 10_000; i++ {
		// Mix magnitudes so many buckets are populated.
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		parts[i%shards].Observe(v)
		whole.Observe(v)
	}
	merged := NewHistogram(UnitNanos)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged summary (count=%d sum=%d min=%d max=%d) != whole (count=%d sum=%d min=%d max=%d)",
			merged.Count(), merged.Sum(), merged.Min(), merged.Max(),
			whole.Count(), whole.Sum(), whole.Min(), whole.Max())
	}
	for i := 0; i < HistBuckets; i++ {
		if merged.BucketCount(i) != whole.BucketCount(i) {
			t.Fatalf("bucket %d: merged %d != whole %d", i, merged.BucketCount(i), whole.BucketCount(i))
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("quantile %.2f: merged %d != whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramMergeUnitMismatch(t *testing.T) {
	a, b := NewHistogram(UnitNanos), NewHistogram(UnitCount)
	b.Observe(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging ns into count histograms should fail")
	}
	// An empty histogram adopts the unit instead.
	c := NewHistogram("")
	if err := c.Merge(b); err != nil {
		t.Fatal(err)
	}
	if c.Unit() != UnitCount {
		t.Fatalf("empty histogram adopted unit %q, want %q", c.Unit(), UnitCount)
	}
}

// TestHistogramQuantilesClamped checks the interpolated quantiles never
// leave the observed range — a single sample reports itself for every
// quantile, not a bucket midpoint.
func TestHistogramQuantilesClamped(t *testing.T) {
	h := NewHistogram(UnitNanos)
	h.Observe(1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) of a single sample = %d, want 1000", q, got)
		}
	}
	h2 := NewHistogram(UnitNanos)
	h2.Observe(10)
	h2.Observe(20)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h2.Quantile(q); got < 10 || got > 20 {
			t.Fatalf("Quantile(%v) = %d, outside [10, 20]", q, got)
		}
	}
}

func TestCollectorHistogramPaths(t *testing.T) {
	c := NewCollector()
	// Disabled: observations vanish.
	c.ObserveLatency(HistDecideLatency, time.Millisecond)
	c.ObserveDelivery(c.Intern("x"), time.Millisecond)
	if names := c.HistogramNames(); len(names) != 0 {
		t.Fatalf("disabled collector recorded %v", names)
	}
	c.EnableHistograms()
	c.ObserveLatency(HistDecideLatency, 2*time.Millisecond)
	c.ObserveValue(HistQueueDepth, 3)
	id := c.Intern("x")
	c.ObserveDelivery(id, 500)
	c.ObserveDelivery(id, 700)

	snaps := c.HistogramSnapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d histograms, want 3: %+v", len(snaps), snaps)
	}
	// Name-sorted: delivery/x, decide-latency, queue-depth.
	if snaps[0].Name != HistDecideLatency || snaps[1].Name != "delivery/x" || snaps[2].Name != HistQueueDepth {
		t.Fatalf("snapshot order %q, %q, %q", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	if h, ok := c.HistogramCopy("delivery/x"); !ok || h.Count() != 2 || h.Sum() != 1200 {
		t.Fatalf("delivery/x copy = %+v ok=%v", h, ok)
	}
	if _, ok := c.HistogramCopy("missing"); ok {
		t.Fatal("HistogramCopy of unknown name reported ok")
	}
}
