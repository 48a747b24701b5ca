package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanRingWraparound(t *testing.T) {
	c := NewCollector()
	c.EnableSpans(4)
	for i := 0; i < 10; i++ {
		c.Span(time.Duration(i)*time.Millisecond, 0, SpanRound, true, int64(i))
	}
	evs := c.SpanEvents()
	if len(evs) != 4 {
		t.Fatalf("ring of 4 returned %d events", len(evs))
	}
	// Oldest-first unwrap: the last 4 writes, in emission order.
	for i, ev := range evs {
		if want := int64(6 + i); ev.Value != want {
			t.Fatalf("event %d has value %d, want %d (events %+v)", i, ev.Value, want, evs)
		}
	}
	if got := c.SpansDropped(); got != 6 {
		t.Fatalf("SpansDropped = %d, want 6", got)
	}
	// A snapshot surfaces the loss.
	if snap := c.Snapshot(); snap.SpansDropped != 6 {
		t.Fatalf("Snapshot.SpansDropped = %d, want 6", snap.SpansDropped)
	}
}

func TestSpanDisabledRecordsNothing(t *testing.T) {
	c := NewCollector()
	c.Span(time.Millisecond, 0, SpanRound, true, 1)
	if got := c.SpanEvents(); len(got) != 0 {
		t.Fatalf("disabled collector recorded %d span events", len(got))
	}
}

func TestPairSpansBeginReplacesOpen(t *testing.T) {
	c := NewCollector()
	c.EnableSpans(0)
	// Round progression on proc 0: begins only; a new begin closes the
	// previous round. Proc 1 interleaves without interference.
	c.Span(1*time.Millisecond, 0, SpanRound, true, 1)
	c.Span(2*time.Millisecond, 1, SpanRound, true, 1)
	c.Span(5*time.Millisecond, 0, SpanRound, true, 2)
	c.Span(9*time.Millisecond, 0, SpanRound, false, 2)
	// Unmatched end: dropped.
	c.Span(9*time.Millisecond, 2, SpanBallot, false, 7)

	snap := c.Snapshot()
	var got []Span
	for _, s := range snap.Spans {
		if s.Kind == SpanRound {
			got = append(got, s)
		}
	}
	if len(got) != 3 {
		t.Fatalf("got %d round spans, want 3: %+v", len(got), got)
	}
	// Sorted by start: p0 r1 [1,5), p1 r1 [2,end) open, p0 r2 [5,9].
	if got[0].Proc != 0 || got[0].Start != 1*time.Millisecond || got[0].End != 5*time.Millisecond || got[0].Open {
		t.Fatalf("first span %+v", got[0])
	}
	if got[1].Proc != 1 || !got[1].Open || got[1].End != snap.End {
		t.Fatalf("second span %+v (end %v)", got[1], snap.End)
	}
	if got[2].Proc != 0 || got[2].Start != 5*time.Millisecond || got[2].End != 9*time.Millisecond || got[2].Open {
		t.Fatalf("third span %+v", got[2])
	}
	for _, s := range snap.Spans {
		if s.Kind == SpanBallot {
			t.Fatalf("unmatched end survived pairing: %+v", s)
		}
	}
}

func TestRecordRunPhases(t *testing.T) {
	c := NewCollector()
	c.EnableSpans(0)
	c.RecordRunPhases(200*time.Millisecond, 350*time.Millisecond)
	snap := c.Snapshot()
	want := map[string][2]time.Duration{
		SpanRun:    {0, 350 * time.Millisecond},
		SpanPreTS:  {0, 200 * time.Millisecond},
		SpanPostTS: {200 * time.Millisecond, 350 * time.Millisecond},
	}
	if len(snap.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(snap.Spans), len(want), snap.Spans)
	}
	for _, s := range snap.Spans {
		w, ok := want[s.Kind]
		if !ok {
			t.Fatalf("unexpected span kind %q", s.Kind)
		}
		if s.Start != w[0] || s.End != w[1] || s.Proc != -1 || s.Open {
			t.Fatalf("span %q = %+v, want [%v, %v] on proc -1", s.Kind, s, w[0], w[1])
		}
	}
	// TS at or beyond the end: no empty post-ts span.
	c2 := NewCollector()
	c2.EnableSpans(0)
	c2.RecordRunPhases(400*time.Millisecond, 350*time.Millisecond)
	for _, s := range c2.Snapshot().Spans {
		if s.Kind == SpanPostTS {
			t.Fatalf("post-ts span recorded for TS beyond run end: %+v", s)
		}
	}
}

// TestDisabledPathAllocFree pins the PR 5 guarantee this feature must not
// regress: with spans and histograms off, the instrumented call sites cost a
// branch and allocate nothing.
func TestDisabledPathAllocFree(t *testing.T) {
	c := NewCollector()
	id := c.Intern("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Span(time.Millisecond, 0, SpanRound, true, 1)
		c.ObserveLatency(HistDecideLatency, time.Millisecond)
		c.ObserveValue(HistQueueDepth, 9)
		c.ObserveDelivery(id, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestChromeTraceWriter(t *testing.T) {
	c := NewCollector()
	c.EnableSpans(0)
	c.EnableHistograms()
	c.Span(1*time.Millisecond, 0, SpanRound, true, 1)
	c.Span(4*time.Millisecond, 0, SpanRound, false, 1)
	c.RecordRunPhases(2*time.Millisecond, 5*time.Millisecond)
	c.ObserveLatency(HistDecideLatency, 3*time.Millisecond)

	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []TimelineProcess{{PID: 0, Name: "test/run", Snap: c.Snapshot()}})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta int
	var sawRound bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur == nil {
				t.Fatalf("complete event without dur: %+v", ev)
			}
			if ev.Cat == SpanRound {
				sawRound = true
				// Proc 0 renders on tid 1 (tid 0 is the run-level lane).
				if ev.TID != 1 {
					t.Fatalf("round span on tid %d, want 1", ev.TID)
				}
				if ev.Ts != 1000 || *ev.Dur != 3000 {
					t.Fatalf("round span ts=%v dur=%v, want 1000/3000 µs", ev.Ts, *ev.Dur)
				}
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete < 4 || meta < 2 || !sawRound {
		t.Fatalf("trace has %d complete events, %d metadata, round=%v:\n%s",
			complete, meta, sawRound, buf.String())
	}
	if !strings.Contains(buf.String(), `"process_name"`) {
		t.Fatal("missing process_name metadata")
	}
}

func TestSnapshotSummary(t *testing.T) {
	c := NewCollector()
	c.EnableSpans(0)
	c.EnableHistograms()
	c.RecordRunPhases(100*time.Millisecond, 300*time.Millisecond)
	c.ObserveLatency(HistDecideLatency, 42*time.Millisecond)
	s := c.Snapshot().Summary()
	for _, want := range []string{SpanRun, SpanPreTS, SpanPostTS, HistDecideLatency} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
