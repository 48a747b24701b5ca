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

func TestMessageCounters(t *testing.T) {
	c := NewCollector()
	c.MessageSent("p1a")
	c.MessageSent("p1a")
	c.MessageSent("p2b")
	c.MessageDelivered("p1a")
	c.MessageDropped("p2b")

	if got := c.TotalSent(); got != 3 {
		t.Fatalf("TotalSent = %d, want 3", got)
	}
	if got := c.TotalDropped(); got != 1 {
		t.Fatalf("TotalDropped = %d, want 1", got)
	}
	byType := c.SentByType()
	if byType["p1a"] != 2 || byType["p2b"] != 1 {
		t.Fatalf("SentByType = %v", byType)
	}
	for _, col := range []struct {
		got, want []TypeCount
	}{
		{c.SentCounts(), []TypeCount{{"p1a", 2}, {"p2b", 1}}},
		{c.DeliveredCounts(), []TypeCount{{"p1a", 1}}},
		{c.DroppedCounts(), []TypeCount{{"p2b", 1}}},
	} {
		if !slices.Equal(col.got, col.want) {
			t.Errorf("counts %v, want %v", col.got, col.want)
		}
	}
}

func TestSentBetweenSnapshots(t *testing.T) {
	c := NewCollector()
	c.MessageSent("x")
	before := c.SentByType()
	c.MessageSent("x")
	c.MessageSent("y")
	after := c.SentByType()
	if got := c.SentBetween(before, after); got != 2 {
		t.Fatalf("SentBetween = %d, want 2", got)
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
	if v, ok := c.MaxSeriesValueAt("session", 25*time.Millisecond); !ok || v != 2 {
		t.Fatalf("MaxSeriesValueAt(25ms) = %d, %v; want 2, true", v, ok)
	}
	if v, ok := c.MaxSeriesValueAt("session", time.Hour); !ok || v != 3 {
		t.Fatalf("MaxSeriesValueAt(1h) = %d, %v; want 3, true", v, ok)
	}
	if _, ok := c.MaxSeriesValueAt("nosuch", time.Hour); ok {
		t.Fatal("MaxSeriesValueAt on missing series should report absence")
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
				c.MessageSent("m")
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

// TestInternedCountersMergeWithStringPath checks the two write paths — the
// simulator's interned lock-free counters and the live runtime's atomic
// string-keyed methods — surface as one merged table to every reader, and
// that pre-interned types the run never used stay invisible.
func TestInternedCountersMergeWithStringPath(t *testing.T) {
	c := NewCollector()
	p1a := c.Intern("p1a")
	unused := c.Intern("never-sent")
	if p1a == unused {
		t.Fatal("distinct names interned to one ID")
	}
	if again := c.Intern("p1a"); again != p1a {
		t.Fatalf("re-intern returned %d, want %d", again, p1a)
	}
	c.SentID(p1a)
	c.SentID(p1a)
	c.DeliveredID(p1a)
	c.DroppedID(p1a)
	// Oracle and adversary Inject traffic is delivered without a send.
	c.DeliveredID(c.Intern("injected"))
	c.MessageSent("p1a") // live-path write to the same type name
	c.MessageSent("live-only")
	c.MessageDropped("live-only")

	if got := c.TotalSent(); got != 4 {
		t.Fatalf("TotalSent = %d, want 4", got)
	}
	if got := c.TotalDropped(); got != 2 {
		t.Fatalf("TotalDropped = %d, want 2", got)
	}
	sent := c.SentByType()
	if sent["p1a"] != 3 || sent["live-only"] != 1 {
		t.Fatalf("SentByType = %v", sent)
	}
	if _, ok := sent["never-sent"]; ok {
		t.Fatalf("unused pre-interned type surfaced in SentByType: %v", sent)
	}
	if got := c.DeliveredByType()["p1a"]; got != 1 {
		t.Fatalf("DeliveredByType[p1a] = %d, want 1", got)
	}
	for _, col := range []struct {
		got, want []TypeCount
	}{
		{c.SentCounts(), []TypeCount{{"live-only", 1}, {"p1a", 3}}},
		{c.DeliveredCounts(), []TypeCount{{"injected", 1}, {"p1a", 1}}},
		{c.DroppedCounts(), []TypeCount{{"live-only", 1}, {"p1a", 1}}},
	} {
		if !slices.Equal(col.got, col.want) {
			t.Errorf("counts %v, want %v: ID and string rows merged, delivered-only types shown, unused ones not", col.got, col.want)
		}
	}
}

// TestMessageCountersConcurrent hammers the string-keyed counters from many
// goroutines, two of the type names appearing only mid-run: every total is
// exact and every reader agrees.
func TestMessageCountersConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	names := []string{"prepare", "promise", "accept", "late-a", "late-b"}
	methods := []func(*Collector, string){
		(*Collector).MessageSent, (*Collector).MessageDelivered, (*Collector).MessageDropped,
	}
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seen := names[:3]
				if r >= rounds/2 {
					seen = names
				}
				for _, name := range seen {
					for m, method := range methods {
						for k := 0; k <= m; k++ { // sent once, delivered twice, dropped thrice
							method(c, name)
						}
					}
				}
				_ = c.SentByType() // a reader in the middle of the writers
			}
		}()
	}
	wg.Wait()

	readers := []func() map[string]int{c.SentByType, c.DeliveredByType, c.DroppedByType}
	for m, read := range readers {
		got := read()
		for i, name := range names {
			want := workers * rounds * (m + 1)
			if i >= 3 {
				want /= 2
			}
			if got[name] != want {
				t.Errorf("column %d, %s: %d, want %d", m, name, got[name], want)
			}
		}
		if len(got) != len(names) {
			t.Errorf("column %d lists %d types, want %d: %v", m, len(got), len(names), got)
		}
	}
	sent := c.SentByType()
	total := 0
	for _, tc := range c.SentCounts() {
		if sent[tc.Type] != tc.Count {
			t.Errorf("SentCounts has %s=%d, SentByType %d", tc.Type, tc.Count, sent[tc.Type])
		}
		total += tc.Count
	}
	if c.TotalSent() != total || c.TotalDropped() != 3*total {
		t.Errorf("TotalSent %d, TotalDropped %d; want %d and %d", c.TotalSent(), c.TotalDropped(), total, 3*total)
	}
	for m, counts := range [][]TypeCount{c.SentCounts(), c.DeliveredCounts(), c.DroppedCounts()} {
		if len(counts) != len(names) {
			t.Errorf("column %d lists %v, want the %d types", m, counts, len(names))
		}
		for _, tc := range counts {
			if tc.Count != (m+1)*sent[tc.Type] {
				t.Errorf("column %d, %s: %d, want %d", m, tc.Type, tc.Count, (m+1)*sent[tc.Type])
			}
		}
	}
}

// TestMessageCountersDoNotAllocate: once a type name has been seen, counting
// a message of that type allocates nothing.
func TestMessageCountersDoNotAllocate(t *testing.T) {
	c := NewCollector()
	names := []string{"prepare", "promise", "accept"}
	count := func() {
		for _, name := range names {
			c.MessageSent(name)
			c.MessageDelivered(name)
			c.MessageDropped(name)
		}
	}
	count()
	if got := testing.AllocsPerRun(1000, count); got != 0 {
		t.Fatalf("%v allocations per nine counted messages, want 0", got)
	}
}
