package experiments

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/tracecheck"
)

// checkedTiming returns the fast profile with a trace recorder attached
// to every process the experiment starts; once the test ends, each
// violation the recorder saw fails it.
func checkedTiming(t *testing.T) Timing {
	rec := tracecheck.NewRecorder()
	timing := FastTiming()
	timing.Observer = rec
	t.Cleanup(func() {
		for _, err := range rec.Verify() {
			t.Error(err)
		}
	})
	return timing
}

// TestE1TraceClean runs E1 (join storms plus a partition merge) under
// the vsbench-style collector and feeds the captured trace through the
// offline checkers — the same pipeline `make check` exercises via
// vsbench -trace-out | vstrace -analyze, but in-process.
func TestE1TraceClean(t *testing.T) {
	mem := obs.NewMemorySink()
	timing := FastTiming()
	timing.Observer = obs.NewCollector(nil, obs.NewTracer(0, mem))

	row, err := RunE1(2, timing, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s\n%s", E1Header, row)

	events := mem.Events()
	if len(events) == 0 {
		t.Fatal("collector captured no trace events")
	}
	rep := tracecheck.Check(events)
	for _, v := range rep.Violations {
		t.Errorf("trace violation: %v", v)
	}
	if rep.Summary.Runs < 3 {
		t.Fatalf("expected a run marker per E1 sub-scenario, got %d", rep.Summary.Runs)
	}
}
