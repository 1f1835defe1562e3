package tracecheck

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func load(t *testing.T, name string) []obs.Event {
	t.Helper()
	events, malformed, err := ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", name, err)
	}
	if malformed != 0 {
		t.Fatalf("fixture %s has %d malformed lines", name, malformed)
	}
	return events
}

// TestCleanFixture: a well-behaved two-process trace — multicasts from
// both members with stamped deliveries, a unicast, an e-change, a view
// change, a mode cycle — passes every checker and summarizes correctly.
func TestCleanFixture(t *testing.T) {
	rep := Check(load(t, "clean.jsonl"))
	if !rep.OK() {
		t.Fatalf("clean trace reported violations: %v", rep.Violations)
	}
	s := rep.Summary
	if s.Procs != 2 || s.Views != 2 || s.Runs != 1 {
		t.Fatalf("summary = %+v, want 2 procs, 2 views, 1 run", s)
	}
	if s.Counts[obs.EvInstall] != 4 || s.Counts[obs.EvMode] != 3 ||
		s.Counts[obs.EvSend] != 3 || s.Counts[obs.EvDeliver] != 5 || s.Counts[obs.EvEChange] != 2 {
		t.Fatalf("counts = %v", s.Counts)
	}
}

// TestViolationFixtures: every checker of the default suite has a
// hand-built fixture, testdata/<name>_violation.jsonl, that trips it
// and only it. Walking DefaultCheckers means a checker cannot join the
// suite without one.
func TestViolationFixtures(t *testing.T) {
	substr := map[string]string{
		"agreement":  "delivered",
		"uniqueness": "sent in v1@a#1 but delivered in v2@a#1",
		"integrity":  "twice",
		"vieworder":  "after round 2",
		"echange":    "contiguous",
		"cut":        "not a consistent cut",
		"structure":  "split",
		"mode":       "Figure-1",
		"flush":      "blocked",
	}
	for _, c := range DefaultCheckers() {
		name := c.Name()
		t.Run(name, func(t *testing.T) {
			want, ok := substr[name]
			if !ok {
				t.Fatalf("checker %q has no violating fixture", name)
			}
			fixture := name + "_violation.jsonl"
			rep := Check(load(t, fixture))
			if rep.OK() {
				t.Fatalf("fixture %s reported no violations", fixture)
			}
			matched := false
			for _, v := range rep.Violations {
				if v.Checker != name {
					t.Fatalf("fixture %s tripped foreign checker: %v", fixture, v)
				}
				if strings.Contains(v.Msg, want) {
					matched = true
				}
			}
			if !matched {
				t.Fatalf("no violation mentions %q: %v", want, rep.Violations)
			}
		})
	}
}

// installs returns a minimal install event.
func install(pid, view string, round uint64, strc string) obs.Event {
	return obs.Event{PID: pid, Type: obs.EvInstall, View: view, Round: round, Struct: strc}
}

// TestRunBoundaryIsolation: the same PID and view strings on both
// sides of an EvRun marker belong to unrelated simulations; events
// must not be correlated across the boundary even when doing so would
// flag a violation.
func TestRunBoundaryIsolation(t *testing.T) {
	events := []obs.Event{
		install("a#1", "v1@a#1", 1, "a#1,b#1"),
		install("b#1", "v1@a#1", 1, "a#1,b#1"),
		{PID: "a#1", Type: obs.EvSend, Msg: "m1@a#1", View: "v1@a#1"},
		{PID: "a#1", Type: obs.EvDeliver, Msg: "m1@a#1", View: "v1@a#1"},
		{PID: "b#1", Type: obs.EvDeliver, Msg: "m1@a#1", View: "v1@a#1"},
		install("a#1", "v2@a#1", 2, "a#1,b#1"),
		install("b#1", "v2@a#1", 2, "a#1,b#1"),
		{Type: obs.EvRun, Note: "second scenario"},
		// Same identifiers, rounds starting over, a different structure,
		// the same message id delivered again: legal only because it is a
		// fresh run.
		install("a#1", "v1@a#1", 1, "a#1|b#1"),
		install("b#1", "v1@a#1", 1, "a#1|b#1"),
		{PID: "a#1", Type: obs.EvSend, Msg: "m1@a#1", View: "v1@a#1"},
		{PID: "a#1", Type: obs.EvDeliver, Msg: "m1@a#1", View: "v1@a#1"},
		{PID: "b#1", Type: obs.EvDeliver, Msg: "m1@a#1", View: "v1@a#1"},
		install("a#1", "v2@a#1", 2, "a#1|b#1"),
		install("b#1", "v2@a#1", 2, "a#1|b#1"),
	}
	rep := Check(events)
	if !rep.OK() {
		t.Fatalf("run boundary not respected: %v", rep.Violations)
	}
	if rep.Summary.Runs != 2 || rep.Summary.Views != 4 {
		t.Fatalf("summary = %+v, want 2 runs and 4 views", rep.Summary)
	}
}

// TestRoundRegressionIsViolation: installed epochs strictly increase
// along a process history, so runs concatenated without an EvRun marker
// are a view-order violation at the seam (and whatever else the joined
// histories break), never a silent new segment.
func TestRoundRegressionIsViolation(t *testing.T) {
	events := []obs.Event{
		install("a#1", "v1@a#1", 1, "a#1,b#1"),
		install("a#1", "v5@a#1", 5, "a#1,b#1"),
		install("a#1", "v2@a#1", 2, "a#1,b#1"), // round drops from 5 to 2
		install("a#1", "v6@a#1", 6, "a#1,b#1"),
	}
	rep := Check(events)
	if len(rep.Violations) != 1 {
		t.Fatalf("want exactly the seam flagged, got %v", rep.Violations)
	}
	if v := rep.Violations[0]; v.Checker != "vieworder" || v.View != "v2@a#1" || !strings.Contains(v.Msg, "after round 5") {
		t.Fatalf("unexpected violation: %v", v)
	}
	if segs := len(Build(events).Procs["a#1"].Segments); segs != 1 {
		t.Fatalf("segments = %d, want 1", segs)
	}
	// The same histories with the marker every in-tree producer writes
	// between runs are clean.
	marked := append(append(append([]obs.Event{}, events[:2]...), obs.Event{Type: obs.EvRun}), events[2:]...)
	if rep := Check(marked); !rep.OK() {
		t.Fatalf("marked seam flagged: %v", rep.Violations)
	}
}

// TestStaleInstallRound: an install resolving an older round than the
// last acked proposal is flagged.
func TestStaleInstallRound(t *testing.T) {
	events := []obs.Event{
		{PID: "a#1", Type: obs.EvAck, View: "v3@a#1", Round: 3},
		{PID: "a#1", Type: obs.EvAck, View: "v4@a#1", Round: 4},
		install("a#1", "v3@a#1", 3, ""),
	}
	rep := Check(events)
	if rep.OK() {
		t.Fatal("stale-round install not flagged")
	}
	v := rep.Violations[0]
	if v.Checker != "flush" || !strings.Contains(v.Msg, "stale") {
		t.Fatalf("unexpected violation: %v", v)
	}
}

// TestSummaryWrite smoke-tests the human rendering.
func TestSummaryWrite(t *testing.T) {
	rep := Check(load(t, "clean.jsonl"))
	var sb strings.Builder
	rep.Summary.Write(&sb)
	out := sb.String()
	for _, want := range []string{"2 process(es)", "2 view install(s)", "install=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

// TestDuplicateInstallTolerated: a reconcile re-send can race the
// original install, so the same (view, round) appearing twice in a row
// at one process must not trip any per-segment invariant — the
// duplicate is idempotent at the run-time and dropped from the segment.
func TestDuplicateInstallTolerated(t *testing.T) {
	events := load(t, "clean.jsonl")
	// Re-append each process's last install verbatim, as a re-delivered
	// Install packet would.
	var dups []obs.Event
	last := make(map[string]obs.Event)
	for _, ev := range events {
		if ev.Type == obs.EvInstall {
			last[ev.PID] = ev
		}
	}
	for _, ev := range last {
		dups = append(dups, ev)
	}
	rep := Check(append(events, dups...))
	if !rep.OK() {
		t.Fatalf("duplicate installs flagged: %v", rep.Violations)
	}
	// The duplicates stay visible in the summary's raw counts but add
	// no views (same ids).
	if rep.Summary.Views != 2 {
		t.Fatalf("summary views = %d, want 2", rep.Summary.Views)
	}
	if got := rep.Summary.Counts[obs.EvInstall]; got != 4+len(dups) {
		t.Fatalf("install count = %d, want %d", got, 4+len(dups))
	}
}
