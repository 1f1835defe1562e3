package experiments

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tracecheck"
)

func TestE4Smoke(t *testing.T) {
	rows, err := RunE4(FastTiming(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%s", r)
		if r.Detected != r.Expected {
			t.Errorf("%s: detected %v, expected %v", r.Scenario, r.Detected, r.Expected)
		}
	}
}

func TestE5Smoke(t *testing.T) {
	for _, enr := range []bool{false, true} {
		row, err := RunE5(4, enr, FastTiming(), 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s\n%s", E5Header, row)
	}
}

// TestF1Smoke runs the Figure-1 schedule on the real replicated file
// under the trace checkers. `vstrace -analyze` cannot fail on absence, so
// this is where tier-1 asserts that the run carries mode events at all.
func TestF1Smoke(t *testing.T) {
	rec := tracecheck.NewRecorder()
	timing := FastTiming()
	timing.Observer = rec
	rows, err := RunF1(timing, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(F1Header)
	for _, r := range rows {
		t.Logf("%s", r)
		if r.IllegalSteps != 0 {
			t.Errorf("site %s took %d illegal steps", r.Site, r.IllegalSteps)
		}
	}
	rep := rec.Report()
	for _, v := range rep.Violations {
		t.Errorf("trace violation: %v", v)
	}
	if rep.Summary.Counts[obs.EvMode] == 0 {
		t.Error("the F1 trace holds no mode events")
	}
}

func TestF2Smoke(t *testing.T) {
	rows, violations, err := RunF2(FastTiming(), 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(F2Header)
	for _, r := range rows {
		t.Logf("%s", r)
	}
	if violations != 0 {
		t.Errorf("%d property violations", violations)
	}
}

func TestF3Smoke(t *testing.T) {
	row, err := RunF3(5, FastTiming(), 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s", F3Header, row)
	if row.Violations != 0 {
		t.Errorf("%d property violations", row.Violations)
	}
}

func TestE6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("churn window is slow")
	}
	for _, gap := range []int{200, 600} {
		row, err := RunE6(time.Duration(gap)*time.Millisecond, 2*time.Second, true, FastTiming(), 42)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s\n%s", E6Header, row)
		if row.Injections == 0 {
			t.Error("no injections performed")
		}
	}
}
