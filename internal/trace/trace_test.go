package trace

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestMessageCounters: the one table counts sends, deliveries and drops by
// interned ID, and a re-interned name keeps its ID.
func TestMessageCounters(t *testing.T) {
	c := NewCollector()
	p1a := c.Intern("p1a")
	p2b := c.Intern("p2b")
	if p1a == p2b {
		t.Fatalf("distinct names interned to one ID %d", p1a)
	}
	if again := c.Intern("p1a"); again != p1a {
		t.Fatalf("re-intern returned %d, want %d", again, p1a)
	}
	c.SentID(p1a)
	c.SentID(p1a)
	c.SentIDN(p2b, 2)
	c.DeliveredID(p1a)
	c.DroppedID(p2b)
	c.DroppedIDN(p2b, 2)

	if got := c.TotalSent(); got != 4 {
		t.Fatalf("TotalSent = %d, want 4", got)
	}
	if got := c.TotalDropped(); got != 3 {
		t.Fatalf("TotalDropped = %d, want 3", got)
	}
	if sent := c.SentByType(); len(sent) != 2 || sent["p1a"] != 2 || sent["p2b"] != 2 {
		t.Fatalf("SentByType = %v, want p1a 2 and p2b 2 only", sent)
	}
	for _, col := range []struct {
		got, want []TypeCount
	}{
		{c.SentCounts(), []TypeCount{{"p1a", 2}, {"p2b", 2}}},
		{c.DeliveredCounts(), []TypeCount{{"p1a", 1}}},
		{c.DroppedCounts(), []TypeCount{{"p2b", 3}}},
	} {
		if !slices.Equal(col.got, col.want) {
			t.Errorf("counts %v, want %v", col.got, col.want)
		}
	}
}

// TestInternedCountersMergeWithStringPath: a send counted by name through
// MessageSent lands in the same row as sends counted by ID, types that are
// only delivered are listed among the deliveries, and types interned but
// never used stay out of every listing.
func TestInternedCountersMergeWithStringPath(t *testing.T) {
	c := NewCollector()
	p1a := c.Intern("p1a")
	unused := c.Intern("never-sent")
	if p1a == unused {
		t.Fatal("distinct names interned to one ID")
	}
	c.SentID(p1a)
	c.SentID(p1a)
	c.DeliveredID(p1a)
	c.DroppedID(p1a)
	// Oracle and adversary Inject traffic is delivered without a send.
	c.DeliveredID(c.Intern("injected"))
	c.MessageSent("p1a") // by-name write to an interned type
	c.MessageSent("by-name-only")

	if got := c.TotalSent(); got != 4 {
		t.Fatalf("TotalSent = %d, want 4", got)
	}
	sent := c.SentByType()
	if sent["p1a"] != 3 || sent["by-name-only"] != 1 {
		t.Fatalf("SentByType = %v", sent)
	}
	if _, ok := sent["never-sent"]; ok {
		t.Fatalf("unused pre-interned type surfaced in SentByType: %v", sent)
	}
	for _, col := range []struct {
		got, want []TypeCount
	}{
		{c.SentCounts(), []TypeCount{{"by-name-only", 1}, {"p1a", 3}}},
		{c.DeliveredCounts(), []TypeCount{{"injected", 1}, {"p1a", 1}}},
		{c.DroppedCounts(), []TypeCount{{"p1a", 1}}},
	} {
		if !slices.Equal(col.got, col.want) {
			t.Errorf("counts %v, want %v: by-name and ID writes merged, delivered-only types shown, unused ones not", col.got, col.want)
		}
	}
}

func TestSeries(t *testing.T) {
	c := NewCollector()
	c.Emit(10*time.Millisecond, 0, "session", 1)
	c.Emit(20*time.Millisecond, 1, "session", 2)
	c.Emit(30*time.Millisecond, 0, "session", 3)
	c.Emit(5*time.Millisecond, 2, "round", 1)

	s := c.Series("session")
	if len(s) != 3 || s[1].Value != 2 || s[1].Proc != 1 {
		t.Fatalf("Series = %+v", s)
	}
	if r := c.Series("round"); len(r) != 1 || r[0].Proc != 2 {
		t.Fatalf(`Series("round") = %+v`, r)
	}
	if r := c.Series("nosuch"); len(r) != 0 {
		t.Fatalf("a kind never emitted has samples: %+v", r)
	}
	// Returned slice must be a copy.
	s[0].Value = 999
	if c.Series("session")[0].Value == 999 {
		t.Fatal("Series aliased internal storage")
	}
}

func TestCollectorConcurrentUse(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SentID(c.Intern("m"))
				c.Emit(time.Duration(j), p, "k", int64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := c.TotalSent(); got != 800 {
		t.Fatalf("TotalSent = %d, want 800", got)
	}
	if got := len(c.Series("k")); got != 800 {
		t.Fatalf("series len = %d, want 800", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]time.Duration{40, 10, 20, 30})
	if s.Count != 4 || s.Min != 10 || s.Max != 40 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Mean != 25 {
		t.Fatalf("Mean = %v, want 25", s.Mean)
	}
	if s.Median != 25 {
		t.Fatalf("Median = %v, want 25", s.Median)
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty Summarize should be zero")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{10, 20, 30, 40, 50}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {-1, 10}, {2, 50},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%.2f) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of empty should be 0")
	}
}

// Property: Min ≤ Median ≤ P95 ≤ Max and Min ≤ Mean ≤ Max for any sample set.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r)
		}
		s := Summarize(samples)
		return s.Min <= s.Median && s.Median <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestInDelta(t *testing.T) {
	if got := InDelta(170*time.Millisecond, 10*time.Millisecond); got != "17.0δ" {
		t.Fatalf("InDelta = %q, want 17.0δ", got)
	}
	if got := InDelta(time.Second, 0); got != "1s" {
		t.Fatalf("InDelta with zero delta = %q", got)
	}
}

func TestSummaryStrings(t *testing.T) {
	s := Summarize([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	if str := s.String(); !strings.Contains(str, "n=2") {
		t.Fatalf("String = %q", str)
	}
	if str := s.StringInDelta(10 * time.Millisecond); !strings.Contains(str, "δ") {
		t.Fatalf("StringInDelta = %q", str)
	}
}

// TestInternIsByValue: the table is searched by identity first, and that is
// only a shortcut — an equal name built at run time (another address), a
// prefix of a known name at the same address, and the empty name all get the
// ID their bytes call for, and looking a name up does not allocate.
func TestInternIsByValue(t *testing.T) {
	c := NewCollector()
	names := []string{"rsm-p1a", "rsm-p1b", "rsm-p2a", "rsm-decided", ""}
	for want, name := range names {
		if got := c.Intern(name); got != want {
			t.Fatalf("Intern(%q) = %d, want %d", name, got, want)
		}
	}
	for want, name := range names {
		built := strings.Clone(name + "x")[:len(name)]
		if got := c.Intern(built); got != want {
			t.Errorf("Intern of a run-time copy of %q = %d, want %d", name, got, want)
		}
	}
	if got, want := c.Intern(names[3][:5]), len(names); got != want { // "rsm-d"
		t.Errorf("Intern of a known name's prefix = %d, want the new ID %d", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { c.Intern(names[3]) }); n != 0 {
		t.Errorf("Intern of a known name allocates %v times", n)
	}
}

// TestMessageCountersConcurrent hammers the counters from many goroutines
// the way the live runtime does, interning the type name at every message,
// two of the names appearing only mid-run: every goroutine gets the same
// IDs, every total is exact and every reader agrees. With histograms on,
// every delivery is also observed into its type's histogram, and each
// histogram's count is exact.
func TestMessageCountersConcurrent(t *testing.T) {
	t.Run("counters", func(t *testing.T) { testCountersConcurrent(t, false) })
	t.Run("delivery-histograms", func(t *testing.T) { testCountersConcurrent(t, true) })
	t.Run("first-sight", testInternFirstSight)
}

func testCountersConcurrent(t *testing.T, hist bool) {
	const workers, rounds = 8, 2000
	names := []string{"prepare", "promise", "accept", "late-a", "late-b"}
	methods := []func(*Collector, int){(*Collector).SentID, (*Collector).DeliveredID, (*Collector).DroppedID}
	c := NewCollector()
	if hist {
		c.EnableHistograms()
	}
	ids := make([][]int, workers)
	var wg, late sync.WaitGroup
	late.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[w] = make([]int, len(names))
			for r := 0; r < rounds; r++ {
				seen := names[:3]
				if r == rounds/2 {
					late.Done()
					late.Wait() // every worker meets the late names at once
				}
				if r >= rounds/2 {
					seen = names
				}
				for i, name := range seen {
					for m, method := range methods {
						for k := 0; k <= m; k++ { // sent once, delivered twice, dropped thrice
							id := c.Intern(name)
							ids[w][i] = id
							method(c, id)
							if m == colDelivered {
								c.ObserveDelivery(id, time.Duration(k))
							}
						}
					}
				}
				_ = c.SentCounts() // a reader in the middle of the writers
			}
		}()
	}
	wg.Wait()

	for w := range ids {
		if !slices.Equal(ids[w], ids[0]) {
			t.Fatalf("worker %d interned %v, worker 0 %v", w, ids[w], ids[0])
		}
	}
	want := func(i, m int) int {
		n := workers * rounds * (m + 1)
		if i >= 3 {
			n /= 2
		}
		return n
	}
	for m, counts := range [][]TypeCount{c.SentCounts(), c.DeliveredCounts(), c.DroppedCounts()} {
		if len(counts) != len(names) {
			t.Errorf("column %d lists %v, want the %d types", m, counts, len(names))
		}
		got := map[string]int{}
		for _, tc := range counts {
			got[tc.Type] = tc.Count
		}
		for i, name := range names {
			if got[name] != want(i, m) {
				t.Errorf("column %d, %s: %d, want %d", m, name, got[name], want(i, m))
			}
		}
	}
	sent := c.SentByType()
	total := 0
	for i, name := range names {
		if sent[name] != want(i, colSent) {
			t.Errorf("SentByType[%s] = %d, want %d", name, sent[name], want(i, colSent))
		}
		total += sent[name]
	}
	if c.TotalSent() != total || c.TotalDropped() != 3*total {
		t.Errorf("TotalSent %d, TotalDropped %d; want %d and %d", c.TotalSent(), c.TotalDropped(), total, 3*total)
	}
	for i, name := range names {
		h, ok := c.HistogramCopy(HistDeliveryPrefix + name)
		if hist && (!ok || h.Count() != int64(want(i, colDelivered))) {
			t.Errorf("%s%s holds %d observations, want %d", HistDeliveryPrefix, name, h.Count(), want(i, colDelivered))
		}
		if !hist && ok {
			t.Errorf("histograms off, yet %s%s exists", HistDeliveryPrefix, name)
		}
	}
}

// testInternFirstSight releases goroutines together onto names no one has
// seen, many times over: each name gets one ID, the same for every
// goroutine, and a goroutine that finds a name another one has just added
// finds its row complete.
func testInternFirstSight(t *testing.T) {
	const workers, trials = 8, 200
	names := []string{"a", "b", "c", "d"}
	for trial := 0; trial < trials; trial++ {
		c := NewCollector()
		ids := make([][]int, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, name := range names {
					id := c.Intern(name)
					c.SentID(id)
					ids[w] = append(ids[w], id)
				}
			}()
		}
		close(start)
		wg.Wait()
		for w := range ids {
			if !slices.Equal(ids[w], []int{0, 1, 2, 3}) {
				t.Fatalf("trial %d: worker %d interned %v, want [0 1 2 3]", trial, w, ids[w])
			}
		}
		if got := c.TotalSent(); got != workers*len(names) {
			t.Fatalf("trial %d: TotalSent = %d, want %d", trial, got, workers*len(names))
		}
	}
}

// TestMessageCountersDoNotAllocate: once a type name has been seen,
// interning it and counting a message of that type allocate nothing.
func TestMessageCountersDoNotAllocate(t *testing.T) {
	c := NewCollector()
	names := []string{"prepare", "promise", "accept"}
	count := func() {
		for _, name := range names {
			c.SentID(c.Intern(name))
			c.DeliveredID(c.Intern(name))
			c.DroppedID(c.Intern(name))
		}
	}
	count()
	if got := testing.AllocsPerRun(1000, count); got != 0 {
		t.Fatalf("%v allocations per nine counted messages, want 0", got)
	}
}
