package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/consensus"
)

func TestRelResolve(t *testing.T) {
	delta, ts := 10*time.Millisecond, 200*time.Millisecond
	if got := AfterTS(3).Resolve(delta, ts); got != ts+3*delta {
		t.Errorf("AfterTS(3) = %v", got)
	}
	if got := AtDeltas(2).Resolve(delta, ts); got != 2*delta {
		t.Errorf("AtDeltas(2) = %v", got)
	}
	if got := (Rel{FromTS: true, Deltas: -10}).Resolve(delta, ts); got != ts-10*delta {
		t.Errorf("TS−10δ = %v", got)
	}
	if !(Rel{}).IsZero() || AfterTS(1).IsZero() {
		t.Error("IsZero misclassifies")
	}
}

// recorder is a RestartTarget that logs what it was asked to schedule.
type recorder []string

func (r *recorder) CrashAt(id consensus.ProcessID, at time.Duration) {
	*r = append(*r, fmt.Sprintf("crash %d@%v", id, at))
}

func (r *recorder) RestartAt(id consensus.ProcessID, at time.Duration) {
	*r = append(*r, fmt.Sprintf("restart %d@%v", id, at))
}

// badSchedules are the entries every entry point must reject, by the
// fragment of the error that names the rule.
var badSchedules = map[string]Restart{
	"in a cluster of 5": {Proc: 9, CrashAt: AtAbs(time.Millisecond)},
	"before time 0":     {Proc: 1, CrashAt: AtAbs(-time.Millisecond)},
	"before its crash":  {Proc: 1, CrashAt: AtAbs(50 * time.Millisecond), RestartAt: AtAbs(20 * time.Millisecond)},
}

// TestScheduleRestartsChecksBeforeScheduling: a bad entry anywhere in the
// list schedules nothing, and a good list is scheduled crash then restart,
// entry by entry, with every instant resolved against δ and TS.
func TestScheduleRestartsChecksBeforeScheduling(t *testing.T) {
	good := Restart{Proc: 0, CrashAt: AtAbs(time.Millisecond), RestartAt: AtDeltas(3)}
	for want, bad := range badSchedules {
		var got recorder
		err := ScheduleRestarts(&got, []Restart{good, bad}, 5, delta, 200*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: got error %v, want one containing %q", bad, err, want)
		}
		if len(got) != 0 {
			t.Errorf("%+v: scheduled %v before rejecting the list", bad, got)
		}
	}

	var got recorder
	rs := []Restart{
		{Proc: 3, CrashAt: AfterTS(-10), RestartAt: AfterTS(5)},
		{Proc: 4, CrashAt: AfterTS(1)},
		good,
	}
	if err := ScheduleRestarts(&got, rs, 5, delta, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := "crash 3@100ms restart 3@250ms crash 4@210ms crash 0@1ms restart 0@30ms"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("scheduled %q, want %q", s, want)
	}
	for id, down := range []bool{false, false, false, false, true} {
		if StaysDown(rs, consensus.ProcessID(id)) != down {
			t.Errorf("StaysDown(%d) = %v, want %v", id, !down, down)
		}
	}
}

// TestRunRejectsBadSchedules: Run returns the schedule's error instead of
// panicking inside the simulator or running a restart before its crash.
func TestRunRejectsBadSchedules(t *testing.T) {
	for want, bad := range badSchedules {
		_, err := Run(Config{Protocol: ModifiedPaxos, N: 5, Delta: delta, Seed: 1, Restarts: []Restart{bad}})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: got error %v, want one containing %q", bad, err, want)
		}
	}
}
