// Package tracecheck is the repository's one checker of the paper's
// guarantees (outside bench/). It analyzes the structured traces
// internal/obs produces: it reconstructs per-process timelines and runs
// a suite of checkers over them — view-synchrony agreement (P2.1),
// uniqueness (P2.2), integrity (P2.3), e-change total order within a
// view (P6.1), e-changes as consistent cuts (P6.2), subview-structure
// survival across views (P6.3), view order, Figure-1 mode-machine
// legality, and the flush discipline (no sends while blocked). It also
// diffs two traces of the same scenario run under different seeds,
// reporting the first divergence.
//
// The package consumes only obs.Event values, so one suite serves a
// trace file read back with ReadFile, the in-memory stream of an
// obs.MemorySink, and a live run observed through a Recorder:
//
//	events, malformed, err := tracecheck.ReadFile(path)
//	rep := tracecheck.Check(events)
//	if !rep.OK() { ... }
//
//	rec := tracecheck.NewRecorder()
//	opts.Observer = rec // on every process
//	... run any fault schedule ...
//	for _, err := range rec.Verify() { ... }
//
// Traces that funnel several independent simulations through one
// tracer must separate them with Tracer.MarkRun; see Timeline for how
// run boundaries and identifier aliasing are handled.
package tracecheck

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Violation is one checker finding. Seq is the trace sequence number
// of the offending event when the violation is tied to one (0
// otherwise); View and PID narrow it down when known.
type Violation struct {
	Checker string `json:"checker"`
	PID     string `json:"pid,omitempty"`
	View    string `json:"view,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Msg     string `json:"msg"`
}

func (v Violation) String() string {
	s := "[" + v.Checker + "]"
	if v.PID != "" {
		s += " " + v.PID
	}
	if v.View != "" {
		s += " view=" + v.View
	}
	if v.Seq != 0 {
		s += fmt.Sprintf(" seq=%d", v.Seq)
	}
	return s + ": " + v.Msg
}

// Checker inspects a reconstructed timeline and reports violations.
type Checker interface {
	Name() string
	Check(tl *Timeline) []Violation
}

// DefaultCheckers returns the full built-in suite, one checker per
// guarantee the trace can witness. Every gate in the tree — tests
// through a Recorder, the chaos harness, vstrace live and offline —
// runs all of them.
func DefaultCheckers() []Checker {
	return []Checker{
		Agreement{},
		Uniqueness{},
		Integrity{},
		ViewOrder{},
		EChangeOrder{},
		Cut{},
		Structure{},
		ModeMachine{},
		FlushDiscipline{},
	}
}

// Summary describes the shape of an analyzed trace.
type Summary struct {
	// Events is the number of trace events analyzed; Malformed is the
	// number of unparseable lines skipped by the reader (filled in by
	// the caller when the events came from ReadFile, zero otherwise).
	Events    int
	Malformed int
	// Runs is the number of independent runs in the trace (EvRun
	// boundary markers plus one).
	Runs int
	// Procs is the number of distinct processes, and Views the number
	// of distinct installed views (counted per run: the same view
	// string in two runs is two views).
	Procs int
	Views int
	// Counts is the number of events per type.
	Counts map[obs.EventType]int
}

// Write renders the summary as two human-readable lines.
func (s Summary) Write(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events, %d run(s), %d process(es), %d view install(s)",
		s.Events, s.Runs, s.Procs, s.Views)
	if s.Malformed > 0 {
		fmt.Fprintf(w, " (%d malformed line(s) skipped)", s.Malformed)
	}
	fmt.Fprintln(w)
	types := make([]string, 0, len(s.Counts))
	for t := range s.Counts {
		types = append(types, string(t))
	}
	sort.Strings(types)
	fmt.Fprint(w, "  ")
	for i, t := range types {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%s=%d", t, s.Counts[obs.EventType(t)])
	}
	fmt.Fprintln(w)
}

// Report is the outcome of analyzing one trace.
type Report struct {
	Summary    Summary
	Violations []Violation
}

// OK reports whether every checker passed.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Check analyzes events with the default checker suite.
func Check(events []obs.Event) Report { return CheckWith(events, DefaultCheckers()...) }

// CheckWith analyzes events with an explicit checker suite. Violations
// are sorted deterministically (checker, pid, seq, message).
func CheckWith(events []obs.Event, checkers ...Checker) Report {
	tl := Build(events)
	rep := Report{Summary: tl.summary()}
	for _, c := range checkers {
		rep.Violations = append(rep.Violations, c.Check(tl)...)
	}
	sort.Slice(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Msg < b.Msg
	})
	return rep
}
